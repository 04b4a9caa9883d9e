//! Pass fixture: every Result is propagated, bound, or handled by
//! variant.

fn persist(x: u32) -> Result<u32, String> {
    Ok(x)
}

// Propagated with `?`.
fn propagates(x: u32) -> Result<u32, String> {
    let v = persist(x)?;
    Ok(v)
}

// `.ok()` whose Option is bound and returned: the caller still sees
// the failure.
fn binds_option(x: u32) -> Option<u32> {
    let v = persist(x).ok();
    v
}

// Both arms observed.
fn handles(x: u32) -> u32 {
    match persist(x) {
        Ok(v) => v,
        Err(e) => report(e),
    }
}

// An empty arm for a *specific* variant has observed the error; the
// deliberate skip is part of the protocol.
fn variant_skip(x: u32) {
    match persist_typed(x) {
        Ok(v) => consume(v),
        Err(FixtureError::Benign { .. }) => {}
        Err(e) => escalate(e),
    }
}

// A unit-returning `write` next to a handled `std::fs::write`: neither
// the method call nor the observed fs error is a swallow.
struct Hasher(u64);

impl Hasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

fn hashes_and_persists(h: &mut Hasher, text: &str) -> std::io::Result<()> {
    let _ = h.write(text.as_bytes());
    std::fs::write("artifact.txt", text)?;
    Ok(())
}
