// Fixture: exercises the `lint:allow` suppression grammar inside a
// hot-path region. Never compiled.

// lint:hot-path
// Case 1: valid allow with a reason, on the same line — suppressed.
pub fn same_line() -> Vec<u32> {
    Vec::new() // lint:allow(hot-path-alloc): fixture demonstrates same-line suppression
}

// Case 2: valid allow on the preceding line — suppressed.
pub fn previous_line() -> Vec<u32> {
    // lint:allow(hot-path-alloc): fixture demonstrates preceding-line suppression
    Vec::new()
}

// Case 3: missing reason — the allow is rejected (directive error)
// AND the underlying finding stays unsuppressed.
pub fn missing_reason() -> Vec<u32> {
    Vec::new() // lint:allow(hot-path-alloc)
}

// Case 4: unknown rule name — directive error.
pub fn unknown_rule() -> Vec<u32> {
    // lint:allow(no-such-rule): typo'd rule names must not silently suppress
    Vec::new()
}
// lint:end-hot-path
