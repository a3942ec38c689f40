// The minimized two-function lock-order inversion: `ab` takes alpha then
// beta, `ba` takes beta then alpha. Each function is fine on its own (no
// same-receiver double acquisition); only the cross-function order graph
// sees the deadlock.
use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}

impl Pair {
    pub fn ab(&self) -> u64 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }

    pub fn ba(&self) -> u64 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a - *b
    }
}
