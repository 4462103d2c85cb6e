//! The packed column: how extracted values travel from a wrapper to the
//! Instance Generator.

use std::fmt;

/// The values one rule extracted from one source — the paper's "raw
/// data fragments" of an attribute, one per record — held as a column:
/// all value text in one buffer, cut by the offset each value ends at.
/// Two blocks however many values there are, so building, cloning and
/// dropping a column cost the same few allocator calls at any length.
///
/// Equal adjacent offsets are an empty string, which is a value like
/// any other.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Values {
    text: String,
    /// `ends[i]` is the byte offset in `text` one past value `i`; value
    /// `i` starts where value `i - 1` ends (the first at 0).
    ends: Vec<usize>,
}

impl Values {
    /// An empty column.
    pub fn new() -> Self {
        Values::default()
    }

    /// Appends one value.
    pub fn push(&mut self, value: &str) {
        self.text.push_str(value);
        self.ends.push(self.text.len());
    }

    /// Appends one value that `write` renders in place: whatever it
    /// appends to the buffer it is handed is the value.
    pub fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.text);
        self.ends.push(self.text.len());
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Value `i`, if the column is that long.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { *self.ends.get(i - 1)? };
        self.text.get(start..end)
    }

    /// The first value, if any.
    pub fn first(&self) -> Option<&str> {
        self.get(0)
    }

    /// The values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let value = self.text.get(start..end).unwrap_or_default();
            start = end;
            value
        })
    }

    /// Keeps the first `len` values (a no-op on a shorter column).
    pub fn truncate(&mut self, len: usize) {
        if len < self.ends.len() {
            self.text.truncate(if len == 0 { 0 } else { self.ends[len - 1] });
            self.ends.truncate(len);
        }
    }

    /// Total bytes of value text — `Σ value.len()`, what the wire
    /// accounting sizes a response section by.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }
}

/// Prints like the list of strings it stands for.
impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for Values {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut values = Values::new();
        for value in iter {
            values.push(value.as_ref());
        }
        values
    }
}

impl From<Vec<String>> for Values {
    fn from(list: Vec<String>) -> Self {
        list.into_iter().collect()
    }
}

impl<S: AsRef<str>> PartialEq<[S]> for Values {
    fn eq(&self, other: &[S]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_ref())
    }
}

impl<S: AsRef<str>, const N: usize> PartialEq<[S; N]> for Values {
    fn eq(&self, other: &[S; N]) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_read_back_as_pushed() {
        let mut v = Values::new();
        assert!(v.is_empty());
        assert_eq!((v.first(), v.get(0), v.text_len()), (None, None, 0));
        for value in ["Seiko", "", "Zürich", ""] {
            v.push(value);
        }
        v.push_with(|text| text.push_str("59.5"));
        assert_eq!(v, ["Seiko", "", "Zürich", "", "59.5"]);
        assert_eq!((v.len(), v.text_len()), (5, "SeikoZürich59.5".len()));
        assert_eq!(v.first(), Some("Seiko"));
        assert_eq!(
            (v.get(2), v.get(3), v.get(4), v.get(5)),
            (Some("Zürich"), Some(""), Some("59.5"), None)
        );
        assert_eq!(v.get(usize::MAX), None);
        assert_eq!(v.iter().len(), 5);
        assert_eq!(format!("{v:?}"), r#"["Seiko", "", "Zürich", "", "59.5"]"#);
    }

    #[test]
    fn truncate_keeps_text_and_offsets_in_step() {
        let full: Values = ["a", "bc", "", "def"].into_iter().collect();
        for keep in 0..6 {
            let mut v = full.clone();
            v.truncate(keep);
            let expected: Vec<&str> = full.iter().take(keep).collect();
            assert_eq!(v, expected[..], "truncate({keep})");
            assert_eq!(v.text_len(), expected.concat().len());
            // A truncated column takes pushes like a fresh one.
            v.push("z");
            assert_eq!(v.get(v.len() - 1), Some("z"));
        }
    }

    #[test]
    fn equality_is_the_lists_equality() {
        // Same concatenated text, different cuts.
        let ab_c: Values = ["ab", "c"].into_iter().collect();
        let a_bc: Values = ["a", "bc"].into_iter().collect();
        assert_ne!(ab_c, a_bc);
        assert_ne!(ab_c, ["ab"]);
        assert_eq!(ab_c, Values::from(vec!["ab".to_string(), "c".to_string()]));
        let trailing_empty: Values = ["ab", "c", ""].into_iter().collect();
        assert_ne!(ab_c, trailing_empty);
    }
}
