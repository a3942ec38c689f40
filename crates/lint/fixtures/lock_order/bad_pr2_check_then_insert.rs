// The PR 2 cache race, verbatim shape: the state checked under the first
// guard may be stale by the second — two threads both miss and both compute.
fn get_or_compute(&self, key: u64) -> u64 {
    if !self.map.lock().contains_key(&key) {
        let value = self.compute(key);
        self.map.lock().insert(key, value);
    }
    self.map.lock().get(&key).copied().unwrap_or(0)
}
