//! Workspace umbrella crate: re-exports the model library and the CLI so
//! the examples and integration tests in the repository root can use a
//! single import path.

pub use collabsim;
pub use collabsim_cli as cli;
