// A-rule fixture: the suppression machinery polices itself.
// A reason-less allow is malformed (A001) and does NOT suppress; so is
// an allow naming an id the catalog does not carry — what a leftover
// allow of a retired rule turns into; a well-formed allow that claims
// nothing is unused (A002).

fn nothing() {} // lint:allow(D001) lint:expect(A001)

fn retired() {} // lint:allow(Z999, the rule this named is gone from the catalog) lint:expect(A001)

fn empty() {} // lint:allow(H001, reason present but nothing fires here) lint:expect(A002)
