//! The `BULLET_THREADS` and `BULLET_SEEDS` parser: the width of the run
//! pool and the seeds each figure configuration sweeps.

/// A positive count read from the variable `name`, `default()` when it is
/// unset or empty.
///
/// # Panics
///
/// Panics on anything that is not a positive integer — silently falling
/// back would attribute benchmark numbers to the wrong configuration.
pub(crate) fn parse_count(
    name: &str,
    value: Option<&str>,
    default: impl FnOnce() -> usize,
) -> usize {
    match value {
        None | Some("") => default(),
        Some(text) => match text.parse::<usize>() {
            Ok(count) if count >= 1 => count,
            _ => panic!("unrecognized {name} value {text:?}: expected a positive count"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_count("BULLET_THREADS", Some("4"), || 1), 4);
        assert_eq!(parse_count("BULLET_THREADS", Some("1"), || 1), 1);
        assert_eq!(parse_count("BULLET_THREADS", None, || 6), 6);
        assert_eq!(parse_count("BULLET_SEEDS", Some(""), || 6), 6);
    }

    #[test]
    #[should_panic(expected = "BULLET_THREADS")]
    fn invalid_thread_count_panics() {
        parse_count("BULLET_THREADS", Some("many"), || 1);
    }
}
