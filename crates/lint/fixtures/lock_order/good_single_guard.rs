// The fixed shape: one guard held across the whole check-then-act decision.
fn get_or_compute(&self, key: u64) -> u64 {
    let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(v) = map.get(&key) {
        return *v;
    }
    let value = self.compute(key);
    map.insert(key, value);
    value
}

fn two_different_locks(&self) {
    // Distinct bindings in one function are fine.
    let a = self.left.lock();
    let b = self.right.lock();
    drop((a, b));
}
