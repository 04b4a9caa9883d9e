//! Fail fixture: Results silently discarded.

// Every definition of `persist` returns Result, so the engine registers
// it as fallible workspace-wide.
fn persist(x: u32) -> Result<u32, String> {
    Ok(x)
}

// Discarded wholesale: the error can never be observed.
fn drop_result() {
    let _ = persist(4);
}

// Statement-terminal `.ok()`: converts to Option and throws that away.
fn terminal_ok(x: u32) {
    persist(x).ok();
}

// The arm matches every error and observes none of them.
fn silent_arm(x: u32) {
    match persist(x) {
        Ok(v) => consume(v),
        Err(_) => {}
    }
}

// A unit-returning `write` elsewhere in the workspace makes the bare
// name ambiguous, but a path-qualified `std::fs::write` is still the
// fallible std call, and discarding it still swallows the error.
struct Hasher(u64);

impl Hasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

fn best_effort_artifact(text: &str) {
    let _ = std::fs::write("artifact.txt", text);
}
