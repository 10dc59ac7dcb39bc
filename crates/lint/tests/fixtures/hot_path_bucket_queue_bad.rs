// Fixture: a bucketed event-queue sketch that allocates inside its
// marked push/pop region — the exact class of regression the
// `hot-path-alloc` coverage polices. Never compiled.
pub struct BucketQueue {
    buckets: Vec<Vec<(u64, u64)>>,
    overflow: Vec<(u64, u64)>,
    width_us: u64,
}

// lint:hot-path — push/pop must reuse bucket storage
impl BucketQueue {
    pub fn push(&mut self, time_us: u64, seq: u64) {
        let slot = (time_us / self.width_us) as usize;
        if slot >= self.buckets.len() {
            // Growing the buckets per push allocates on the hot path.
            self.buckets.push(Vec::new());
        }
        self.buckets[slot % self.buckets.len()].push((time_us, seq));
    }

    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let label = format!("overflow[{}]", self.overflow.len());
        let drained: Vec<(u64, u64)> = self.overflow.iter().copied().collect();
        let _ = (label, drained);
        self.overflow.pop()
    }
}
// lint:end-hot-path
