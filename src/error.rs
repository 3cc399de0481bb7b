//! The unified facade error type.
//!
//! Each workspace crate keeps its own precise error enum ([`BuildError`] for
//! deployment construction, [`ServeError`] for the wire service), but
//! applications composing several layers want one type to `?` through.
//! [`Error`] wraps them all, implements
//! [`std::error::Error`] with `source()` chaining, and is `#[non_exhaustive]`
//! so future subsystems can add variants without a major version bump.

use crate::core::BuildError;
use crate::serve::ServeError;

/// Any error the `exspan` facade can surface, one layer per variant.
///
/// ```
/// use exspan::core::{Exspan, ProvenanceMode};
/// use exspan::ndlog::programs;
///
/// fn build() -> Result<(), exspan::Error> {
///     // No topology supplied: surfaces as Error::Build via From.
///     let err = Exspan::builder()
///         .program(programs::mincost())
///         .mode(ProvenanceMode::Reference)
///         .build()
///         .map(|_| ())?;
///     Ok(err)
/// }
/// assert!(matches!(build(), Err(exspan::Error::Build(_))));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Deployment construction was rejected by `Exspan::builder()`.
    Build(BuildError),
    /// The `exspan-serve` wire service failed: transport I/O, a wire-format
    /// violation, or a typed protocol error from the peer.
    Serve(ServeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "deployment build failed: {e}"),
            Self::Serve(e) => write!(f, "serve failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Serve(e) => Some(e),
        }
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Self::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_each_layer_with_a_source_chain() {
        let errors: Vec<Error> = vec![
            BuildError::MissingProgram.into(),
            ServeError::ConnectionClosed.into(),
        ];
        for err in &errors {
            // Display prefixes the layer; source() exposes the inner error.
            assert!(!err.to_string().is_empty());
            assert!(std::error::Error::source(err).is_some());
        }
        assert!(matches!(errors[0], Error::Build(_)));
        assert!(matches!(errors[1], Error::Serve(_)));
    }
}
