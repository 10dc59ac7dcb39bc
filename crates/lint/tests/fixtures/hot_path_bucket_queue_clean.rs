// Fixture: the clean twin of `hot_path_bucket_queue_bad.rs` — bucket
// storage is pre-sized at construction and rebuilt outside the
// region; push/pop only move entries between existing buffers. Never
// compiled.
pub struct BucketQueue {
    buckets: Vec<Vec<(u64, u64)>>,
    overflow: Vec<(u64, u64)>,
    width_us: u64,
}

impl BucketQueue {
    pub fn with_profile(cap: usize, width_us: u64) -> Self {
        let mut buckets = Vec::with_capacity(cap.max(8));
        for _ in 0..cap.max(8) {
            buckets.push(Vec::with_capacity(2));
        }
        BucketQueue {
            buckets,
            overflow: Vec::with_capacity(cap / 4 + 1),
            width_us,
        }
    }

    // lint:hot-path — push/pop reuse the pre-sized buckets
    pub fn push(&mut self, time_us: u64, seq: u64) {
        let slot = (time_us / self.width_us) as usize % self.buckets.len();
        self.buckets[slot].push((time_us, seq));
    }

    pub fn pop(&mut self) -> Option<(u64, u64)> {
        if let Some(entry) = self.overflow.pop() {
            return Some(entry);
        }
        for bucket in &mut self.buckets {
            if !bucket.is_empty() {
                return Some(bucket.swap_remove(0));
            }
        }
        None
    }
    // lint:end-hot-path
}
