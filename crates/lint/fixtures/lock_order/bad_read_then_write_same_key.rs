// The RwLock spelling of check-then-act: the `.read()` guard is gone by the
// time `.write()` is taken, so another thread can have filled the slot in
// between — two acquisitions of one receiver in one function.
fn ensure_loaded(&self, id: u64) {
    if self.table.read().unwrap_or_else(PoisonError::into_inner).contains_key(&id) {
        return;
    }
    let value = self.load(id);
    self.table.write().unwrap_or_else(PoisonError::into_inner).insert(id, value);
}
