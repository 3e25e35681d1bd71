// Fixture: a file-scoped waiver covering multiple findings.
// sam-analyze: allow-file(determinism, "fixture: file-scoped waiver")
pub fn first() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

pub fn second() -> bool {
    SystemTime::now() > SystemTime::UNIX_EPOCH
}
