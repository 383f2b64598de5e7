//! Bad: scoped threads are threads — joining them before returning does
//! not put them under the lookahead-barrier protocol.

pub fn sum_halves(xs: &[u64]) -> u64 {
    let (a, b) = xs.split_at(xs.len() / 2);
    std::thread::scope(|s| {
        let left = s.spawn(|| a.iter().sum::<u64>());
        left.join().expect("left half") + b.iter().sum::<u64>()
    })
}
