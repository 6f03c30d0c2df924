//! Environment knobs, read one way.
//!
//! Every `OFAR_*` variable goes through one of two functions, so a knob
//! means the same thing in every binary: a switch is on iff it is
//! exactly `1`, and a value that does not parse is an error naming the
//! variable — never a silent default (a sweep that quietly ran at the
//! wrong scale or seed is a wrong result).

use std::fmt;
use std::str::FromStr;

/// An environment variable holding a value its reader cannot use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub name: String,
    /// Its value (lossily decoded when not UTF-8).
    pub value: String,
    /// What the reader expected: a type, or a value-level constraint
    /// with the reason it was violated.
    pub expected: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "environment variable {}={:?} is not a valid {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Whether the switch `name` is on: true iff the variable is exactly
/// `1`. Unset, empty, `0` and anything else are off.
pub fn flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v == "1")
}

/// The value of `name` parsed as a `T`: `Ok(None)` when unset, an
/// [`EnvError`] naming the variable when set to something `T` rejects.
pub fn parsed<T: FromStr>(name: &str) -> Result<Option<T>, EnvError> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| EnvError {
            name: name.to_string(),
            value: raw.to_string_lossy().into_owned(),
            expected: std::any::type_name::<T>().to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns its variable names: tests share the process
    // environment and run on parallel threads.

    #[test]
    fn flag_is_true_only_for_exactly_one() {
        let name = "OFAR_TEST_ENV_FLAG";
        std::env::remove_var(name);
        assert!(!flag(name), "unset is off");
        for off in ["", "0", "true", "yes", " 1", "11"] {
            std::env::set_var(name, off);
            assert!(!flag(name), "{off:?} must be off");
        }
        std::env::set_var(name, "1");
        assert!(flag(name));
        std::env::remove_var(name);
    }

    #[test]
    fn parsed_distinguishes_unset_valid_and_malformed() {
        let name = "OFAR_TEST_ENV_PARSED";
        std::env::remove_var(name);
        assert_eq!(parsed::<u64>(name), Ok(None));
        std::env::set_var(name, "42");
        assert_eq!(parsed::<u64>(name), Ok(Some(42)));
        assert_eq!(parsed::<String>(name), Ok(Some("42".to_string())));
        for bad in ["", "abc", "-1", "4 2"] {
            std::env::set_var(name, bad);
            let err = parsed::<u64>(name).expect_err("malformed must not default");
            assert_eq!((err.name.as_str(), err.value.as_str()), (name, bad));
            assert!(err.to_string().contains(name), "{err}");
        }
        std::env::remove_var(name);
    }
}
