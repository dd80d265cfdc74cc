// Fixture: the bin-target driver that makes its crate a leaf.
fn main() {}
