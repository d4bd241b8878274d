//! The `BULLET_SCALE` parser.

use bullet_experiments::Scale;

/// `small`, `default` or `paper`; unset or empty means [`Scale::Default`].
///
/// # Panics
///
/// Panics on any other value — silently falling back would attribute
/// numbers to the wrong scale.
pub(crate) fn parse_scale(value: Option<&str>) -> Scale {
    match value {
        None | Some("") | Some("default") => Scale::Default,
        Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        Some(other) => {
            panic!("unrecognized BULLET_SCALE value {other:?}: expected small, default or paper")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(None), Scale::Default);
        assert_eq!(parse_scale(Some("")), Scale::Default);
        assert_eq!(parse_scale(Some("default")), Scale::Default);
        assert_eq!(parse_scale(Some("small")), Scale::Small);
        assert_eq!(parse_scale(Some("paper")), Scale::Paper);
    }

    #[test]
    #[should_panic(expected = "BULLET_SCALE")]
    fn a_misspelt_scale_panics() {
        parse_scale(Some("papre"));
    }

    #[test]
    #[should_panic(expected = "BULLET_SCALE")]
    fn the_undocumented_full_alias_is_gone() {
        parse_scale(Some("full"));
    }
}
