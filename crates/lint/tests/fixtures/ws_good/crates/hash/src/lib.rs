//! Fixture: a crate that needs `unsafe` denies it at the root, so the
//! one module that uses it carries a local `#[allow(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod kernel;

pub use kernel::first;
