//! The spec grammar and the registry table shared by the algorithm,
//! scheduler and arrival-model registries: `name`, optionally followed
//! by `:key=value,key=value` parameters, resolved by name or alias.
//!
//! A [`Spec`] is a *value* — comparable, printable, and round-trippable:
//! for every spec, `Spec::parse(&spec.label())` reproduces it exactly
//! (pinned by property tests). A [`Registry`] is the table every
//! registry holds: its entries in registration order, the index of
//! their names and aliases, and the unknown-name error. So
//! `exclusion-mutex`'s algorithm registry, `exclusion-workload`'s
//! scheduler registry and `exclusion-serve`'s arrival registry speak
//! the same language and register, look up and suggest names by the
//! same rules; each adds only its metadata type and what it checks
//! before and after an entry's resolver runs.
//!
//! # Grammar
//!
//! ```text
//! spec   := name [ ':' params ]
//! name   := [A-Za-z0-9_-]+
//! params := param ( ',' param )*
//! param  := key '=' value          (named)
//!         | value                  (positional; registries may accept
//!                                   legacy spellings like "burst:2x32")
//! ```
//!
//! # Example
//!
//! ```
//! use exclusion_shmem::spec::Spec;
//!
//! let spec = Spec::parse("burst:wave=2,gap=32").unwrap();
//! assert_eq!(spec.name, "burst");
//! assert_eq!(spec.get("wave"), Some("2"));
//! assert_eq!(Spec::parse(&spec.label()).unwrap(), spec);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Metadata for one parameter a registry entry accepts — what
/// `workload --list` prints next to the entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParamInfo {
    /// The `key` in `name:key=value`.
    pub key: &'static str,
    /// One-line description, including the default.
    pub help: &'static str,
}

/// A parsed spec: a registry entry name plus `key=value` parameters.
///
/// Positional (legacy) parameters are stored with an empty key; see the
/// module docs for the grammar.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Spec {
    /// The registry entry this spec names.
    pub name: String,
    /// `(key, value)` parameters in spelling order; positional values
    /// have an empty key.
    pub params: Vec<(String, String)>,
}

impl Spec {
    /// A bare spec with no parameters.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Spec {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Adds a named parameter (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Parses the `name[:k=v,…]` grammar.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] on an empty name, an empty
    /// parameter, or an empty key/value around a `=`.
    pub fn parse(s: &str) -> Result<Spec, SpecError> {
        let malformed = |why: &str| SpecError::Malformed {
            spec: s.to_string(),
            why: why.to_string(),
        };
        let (name, rest) = match s.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (s, None),
        };
        if name.is_empty() {
            return Err(malformed("empty name"));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(malformed("name may only contain [A-Za-z0-9_-]"));
        }
        let mut params = Vec::new();
        if let Some(rest) = rest {
            if rest.is_empty() {
                return Err(malformed("trailing `:` without parameters"));
            }
            for part in rest.split(',') {
                match part.split_once('=') {
                    Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                        params.push((k.to_string(), v.to_string()));
                    }
                    Some(_) => return Err(malformed("empty key or value in parameter")),
                    None if !part.is_empty() => params.push((String::new(), part.to_string())),
                    None => return Err(malformed("empty parameter")),
                }
            }
        }
        Ok(Spec {
            name: name.to_string(),
            params,
        })
    }

    /// The canonical spelling: `name` or `name:k=v,…`. Parsing the label
    /// reproduces the spec (`parse(label(x)) == Ok(x)`).
    #[must_use]
    pub fn label(&self) -> String {
        let mut out = self.name.clone();
        for (i, (k, v)) in self.params.iter().enumerate() {
            out.push(if i == 0 { ':' } else { ',' });
            if !k.is_empty() {
                out.push_str(k);
                out.push('=');
            }
            out.push_str(v);
        }
        out
    }

    /// The value of the named parameter, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the named parameter as a `usize` with a default, rejecting
    /// junk with a precise error.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidParam`] when the value does not parse.
    pub fn usize_param(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SpecError::InvalidParam {
                spec: self.label(),
                key: key.to_string(),
                value: v.to_string(),
                expected: "a non-negative integer".to_string(),
            }),
        }
    }

    /// [`usize_param`](Spec::usize_param) with a lower bound: a present
    /// value below `min` is rejected as out of range. Registries use
    /// this for parameters where zero is not a configuration but a
    /// contradiction (`patience=0` would disable the starvation valve
    /// the parameter exists to tune). An absent key still yields
    /// `default` unchecked — bounds constrain the user's spelling, not
    /// the registry's own fallback.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidParam`] when the value does not
    /// parse or is below `min`.
    pub fn usize_param_at_least(
        &self,
        key: &str,
        default: usize,
        min: usize,
    ) -> Result<usize, SpecError> {
        let parsed = self.usize_param(key, default)?;
        match self.get(key) {
            Some(v) if parsed < min => Err(SpecError::InvalidParam {
                spec: self.label(),
                key: key.to_string(),
                value: v.to_string(),
                expected: format!("an integer >= {min}"),
            }),
            _ => Ok(parsed),
        }
    }

    /// Parses the named parameter as an `f64` constrained to
    /// `[min, max]`: a present value that does not parse, is not
    /// finite, or falls outside the range is rejected with the expected
    /// range spelled out. An absent key yields `default` unchecked —
    /// bounds constrain the user's spelling, not the registry's own
    /// fallback. Arrival-rate parameters (`poisson:rate=0.5`) resolve
    /// through this, so `rate=-1` fails loudly instead of wrapping or
    /// silently clamping.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidParam`] when the value does not
    /// parse as a finite number or lies outside `[min, max]`.
    pub fn f64_param_in_range(
        &self,
        key: &str,
        default: f64,
        min: f64,
        max: f64,
    ) -> Result<f64, SpecError> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        let out_of_range = || SpecError::InvalidParam {
            spec: self.label(),
            key: key.to_string(),
            value: v.to_string(),
            expected: format!("a number in [{min}, {max}]"),
        };
        let parsed: f64 = v.parse().map_err(|_| out_of_range())?;
        if !parsed.is_finite() || parsed < min || parsed > max {
            return Err(out_of_range());
        }
        Ok(parsed)
    }

    /// Rejects parameters outside `known`, with an error naming the
    /// valid keys — registries call this so typos fail loudly instead of
    /// being ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownParam`] for the first unknown key
    /// (positional parameters are exempt; entries that do not take them
    /// should pass `allow_positional = false`).
    pub fn expect_params(&self, known: &[&str], allow_positional: bool) -> Result<(), SpecError> {
        let unknown = |key: &str| SpecError::UnknownParam {
            spec: self.label(),
            key: key.to_string(),
            known: known.iter().map(ToString::to_string).collect(),
            suggestion: suggest(key, known.iter().copied()),
        };
        for (k, v) in &self.params {
            if k.is_empty() {
                if allow_positional {
                    continue;
                }
                return Err(unknown(v));
            }
            if !known.contains(&k.as_str()) {
                return Err(unknown(k));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why a spec failed to parse or resolve. Shared by the algorithm,
/// scheduler and arrival-model registries so CLI and library callers
/// render one error vocabulary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// The spec text does not match the grammar.
    Malformed {
        /// The offending input.
        spec: String,
        /// What was wrong with it.
        why: String,
    },
    /// The name is not in the registry. Carries the registry contents
    /// (and the nearest valid name, if one is close) so the error is
    /// actionable.
    UnknownName {
        /// The name that failed to resolve.
        name: String,
        /// What kind of registry was searched (`"algorithm"`,
        /// `"scheduler"`, `"arrival model"`).
        kind: &'static str,
        /// Every name the registry knows.
        known: Vec<String>,
        /// The closest registered name, if within editing distance.
        suggestion: Option<String>,
    },
    /// A parameter key the entry does not take.
    UnknownParam {
        /// The full spec.
        spec: String,
        /// The unknown key.
        key: String,
        /// Keys the entry accepts.
        known: Vec<String>,
        /// The closest accepted key, if within editing distance.
        suggestion: Option<String>,
    },
    /// The entry exists but cannot run at the requested process count.
    TooFewProcesses {
        /// The entry name.
        name: String,
        /// The requested process count.
        n: usize,
        /// The entry's floor.
        min_n: usize,
    },
    /// The requested process count exceeds the registry's cap.
    TooManyProcesses {
        /// The entry name.
        name: String,
        /// The requested process count.
        n: usize,
        /// The cap.
        max_n: usize,
    },
    /// A parameter value that does not parse or is out of range.
    InvalidParam {
        /// The full spec.
        spec: String,
        /// The parameter key.
        key: String,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed { spec, why } => {
                write!(f, "malformed spec `{spec}`: {why}")
            }
            SpecError::UnknownName {
                name,
                kind,
                known,
                suggestion,
            } => {
                write!(f, "unknown {kind} `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                write!(f, "; known: {}", known.join(", "))
            }
            SpecError::UnknownParam {
                spec,
                key,
                known,
                suggestion,
            } => {
                write!(f, "`{spec}`: unknown parameter `{key}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                if known.is_empty() {
                    write!(f, " (this entry takes no parameters)")
                } else {
                    write!(f, " (accepted: {})", known.join(", "))
                }
            }
            SpecError::TooFewProcesses { name, n, min_n } => {
                write!(f, "`{name}` needs at least {min_n} processes (got n = {n})")
            }
            SpecError::TooManyProcesses { name, n, max_n } => {
                write!(
                    f,
                    "`{name}` supports at most {max_n} processes (got n = {n})"
                )
            }
            SpecError::InvalidParam {
                spec,
                key,
                value,
                expected,
            } => {
                write!(
                    f,
                    "`{spec}`: parameter `{key}={value}` invalid; expected {expected}"
                )
            }
        }
    }
}

impl Error for SpecError {}

/// The names a registry entry answers to, read off its metadata: what a
/// [`Registry`] indexes, lists and suggests from.
pub trait Named {
    /// What unknown-name errors call an entry (`"algorithm"`,
    /// `"scheduler"`, `"arrival model"`).
    const KIND: &'static str;
    /// The canonical spec name; labels always use it.
    fn name(&self) -> &str;
    /// Accepted alternative spellings.
    fn aliases(&self) -> &[String];
}

type Resolver<T> = dyn Fn(&Spec, usize) -> Result<T, SpecError> + Send + Sync;

/// One named entry of a [`Registry`]: its metadata and the resolver
/// that turns a spec at a process count into a `T`.
#[derive(Clone)]
pub struct Entry<I, T> {
    info: I,
    resolver: Arc<Resolver<T>>,
}

impl<I, T> Entry<I, T> {
    /// An entry resolving specs with `resolver`, which receives the
    /// parsed spec (validate parameters with [`Spec::expect_params`])
    /// and the process count `n`.
    pub fn new(
        info: I,
        resolver: impl Fn(&Spec, usize) -> Result<T, SpecError> + Send + Sync + 'static,
    ) -> Self {
        Entry {
            info,
            resolver: Arc::new(resolver),
        }
    }

    /// The entry's metadata.
    #[must_use]
    pub fn info(&self) -> &I {
        &self.info
    }

    /// Runs the entry's resolver.
    ///
    /// # Errors
    ///
    /// Whatever parameter validation error the resolver reports.
    pub fn resolve(&self, spec: &Spec, n: usize) -> Result<T, SpecError> {
        (self.resolver)(spec, n)
    }
}

impl<I: fmt::Debug, T> fmt::Debug for Entry<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry")
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// An open, runtime-extensible table of named entries: the entries in
/// registration order plus an index of their names and aliases.
#[derive(Clone)]
pub struct Registry<I, T> {
    entries: Vec<Entry<I, T>>,
    /// Canonical names *and* aliases, each mapping to an entry index.
    by_name: HashMap<String, usize>,
}

impl<I, T> Default for Registry<I, T> {
    fn default() -> Self {
        Registry {
            entries: Vec::new(),
            by_name: HashMap::new(),
        }
    }
}

impl<I: fmt::Debug, T> fmt::Debug for Registry<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.entries).finish()
    }
}

impl<I: Named, T> Registry<I, T> {
    /// Adds an entry; an existing entry with the same **canonical**
    /// name is replaced in place (later registration wins), so
    /// downstream crates can shadow a built-in with their own variant.
    /// A name that merely matches another entry's alias becomes a new
    /// entry and takes the spelling over from the alias; aliases never
    /// displace other entries' canonical names.
    pub fn register(&mut self, entry: Entry<I, T>) -> &mut Self {
        let name = entry.info.name().to_string();
        let existing = self
            .by_name
            .get(&name)
            .copied()
            .filter(|&i| self.entries[i].info.name() == name);
        let idx = match existing {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.by_name.insert(name, idx);
        for alias in self.entries[idx].info.aliases() {
            let taken = self
                .by_name
                .get(alias)
                .is_some_and(|&i| self.entries[i].info.name() == alias);
            if !taken {
                self.by_name.insert(alias.clone(), idx);
            }
        }
        self
    }

    /// The entry for `name` (canonical name or alias).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Entry<I, T>> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry<I, T>> {
        self.entries.iter()
    }

    /// All canonical entry names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.info.name().to_string())
            .collect()
    }

    /// The entry for `name` (canonical name or alias).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownName`] when no entry answers to `name`,
    /// listing every canonical name and suggesting the nearest name or
    /// alias.
    pub fn lookup(&self, name: &str) -> Result<&Entry<I, T>, SpecError> {
        self.get(name).ok_or_else(|| SpecError::UnknownName {
            name: name.to_string(),
            kind: I::KIND,
            known: self.names(),
            suggestion: suggest(
                name,
                self.entries.iter().flat_map(|e| {
                    std::iter::once(e.info.name())
                        .chain(e.info.aliases().iter().map(String::as_str))
                }),
            ),
        })
    }
}

/// The nearest candidate to `name` within a small edit distance — the
/// "did you mean" behind registry errors (unknown entry names *and*
/// unknown parameter keys). Ties go to the earlier candidate; `None`
/// when nothing is close enough to help.
///
/// A `key=value` query is compared by its key part only: the value
/// carries no signal about which key was meant, and counting it would
/// both inflate the distance to the intended key and widen the
/// length-proportional cutoff until arbitrary keys qualify.
fn suggest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<String> {
    let name = name.split_once('=').map_or(name, |(key, _)| key);
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        let d = edit_distance(name, c);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    // A suggestion further than half the name away is noise, not help.
    let (d, c) = best?;
    (d <= (name.chars().count() / 2).max(2)).then(|| c.to_string())
}

/// Levenshtein distance, O(|a|·|b|) time, O(|b|) space.
fn edit_distance(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b_chars.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b_chars.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let next = (prev + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b_chars.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_params_reject_values_below_the_floor() {
        let spec = Spec::parse("fanlynch:patience=0").unwrap();
        let err = spec.usize_param_at_least("patience", 1, 1).unwrap_err();
        let SpecError::InvalidParam {
            value, expected, ..
        } = &err
        else {
            panic!("{err}")
        };
        assert_eq!(value, "0");
        assert_eq!(expected, "an integer >= 1");
        // The boundary passes; an absent key yields the default
        // unchecked (bounds constrain spellings, not fallbacks).
        let spec = Spec::parse("fanlynch:patience=1").unwrap();
        assert_eq!(spec.usize_param_at_least("patience", 1, 1).unwrap(), 1);
        let spec = Spec::parse("fanlynch").unwrap();
        assert_eq!(spec.usize_param_at_least("patience", 0, 1).unwrap(), 0);
    }

    #[test]
    fn float_params_in_range_parse_reject_and_default() {
        // In-range values parse, including scientific notation.
        let spec = Spec::parse("poisson:rate=0.5").unwrap();
        assert_eq!(
            spec.f64_param_in_range("rate", 1.0, 0.000001, 1000000.0)
                .unwrap(),
            0.5
        );
        let spec = Spec::parse("poisson:rate=2e3").unwrap();
        assert_eq!(
            spec.f64_param_in_range("rate", 1.0, 0.000001, 1000000.0)
                .unwrap(),
            2000.0
        );
        // Out-of-range, junk, and non-finite values all name the
        // expected range.
        for bad in ["-1", "0", "2000000", "fast", "nan", "inf"] {
            let spec = Spec::parse(&format!("poisson:rate={bad}")).unwrap();
            let err = spec
                .f64_param_in_range("rate", 1.0, 0.000001, 1000000.0)
                .unwrap_err();
            let SpecError::InvalidParam { key, expected, .. } = &err else {
                panic!("{bad}: {err}")
            };
            assert_eq!(key, "rate", "{bad}");
            assert_eq!(expected, "a number in [0.000001, 1000000]", "{bad}");
        }
        // Boundaries pass; an absent key yields the default unchecked.
        let spec = Spec::parse("poisson:rate=0.000001").unwrap();
        assert!(spec
            .f64_param_in_range("rate", 1.0, 0.000001, 1000000.0)
            .is_ok());
        let spec = Spec::parse("poisson").unwrap();
        assert_eq!(
            spec.f64_param_in_range("rate", -3.0, 0.000001, 1000000.0)
                .unwrap(),
            -3.0
        );
    }

    #[test]
    fn parse_and_label_roundtrip() {
        for s in [
            "sequential",
            "burst:wave=2,gap=32",
            "stagger:stride=5",
            "filter:levels=7",
            "a-b_c9",
        ] {
            let spec = Spec::parse(s).unwrap();
            assert_eq!(spec.label(), s);
            assert_eq!(Spec::parse(&spec.label()).unwrap(), spec);
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn positional_params_are_kept_with_empty_keys() {
        let spec = Spec::parse("burst:2x32").unwrap();
        assert_eq!(spec.params, vec![(String::new(), "2x32".to_string())]);
        // Positional values round-trip through the label too.
        assert_eq!(spec.label(), "burst:2x32");
        assert_eq!(Spec::parse(&spec.label()).unwrap(), spec);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in [
            "",
            ":x=1",
            "name:",
            "name:=1",
            "name:k=",
            "name:k=1,",
            "bad name",
        ] {
            assert!(Spec::parse(s).is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn param_helpers_validate() {
        let spec = Spec::parse("x:levels=3").unwrap();
        assert_eq!(spec.usize_param("levels", 9).unwrap(), 3);
        assert_eq!(spec.usize_param("absent", 9).unwrap(), 9);
        assert!(spec.expect_params(&["levels"], false).is_ok());
        let err = spec.expect_params(&["depth"], false).unwrap_err();
        assert!(matches!(err, SpecError::UnknownParam { .. }));
        assert!(err.to_string().contains("depth"));

        let bad = Spec::parse("x:levels=lots").unwrap();
        let err = bad.usize_param("levels", 9).unwrap_err();
        assert!(err.to_string().contains("levels=lots"));
    }

    #[test]
    fn suggestions_catch_near_misses_only() {
        let names = ["dekker-tree", "peterson", "bakery"];
        assert_eq!(suggest("bakey", names), Some("bakery".to_string()));
        assert_eq!(suggest("petersen", names), Some("peterson".to_string()));
        assert_eq!(suggest("zzzzzz", names), None);
        assert_eq!(suggest("x", []), None);
    }

    #[test]
    fn suggestions_score_key_value_queries_by_their_key() {
        let keys = ["patience", "wave", "gap"];
        // The `=value` tail neither inflates the distance to the
        // intended key …
        assert_eq!(
            suggest("patiense=3", keys),
            Some("patience".to_string()),
            "distance must be 1 (patiense→patience), not 3"
        );
        assert_eq!(suggest("wavee=2", keys), Some("wave".to_string()));
        // … nor widens the cutoff until junk qualifies: the key part
        // `x` is one character, so nothing within distance 2 exists.
        assert_eq!(suggest("x=999999999", keys), None);
    }

    #[test]
    fn unknown_param_errors_suggest_the_nearest_key() {
        let spec = Spec::parse("burst:wavee=2,gap=32").unwrap();
        let err = spec.expect_params(&["wave", "gap"], false).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("wave"));
        assert!(err.to_string().contains("did you mean `wave`?"), "{err}");

        // A hopeless key still lists the accepted set, without a
        // suggestion.
        let spec = Spec::parse("burst:zzzzzz=1").unwrap();
        let err = spec.expect_params(&["wave", "gap"], false).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), None);
        assert!(err.to_string().contains("accepted: wave, gap"), "{err}");
    }

    #[derive(Clone, Debug)]
    struct Toy {
        name: &'static str,
        aliases: Vec<String>,
    }

    impl Named for Toy {
        const KIND: &'static str = "toy";
        fn name(&self) -> &str {
            self.name
        }
        fn aliases(&self) -> &[String] {
            &self.aliases
        }
    }

    fn toy(name: &'static str, aliases: &[&str], value: u32) -> Entry<Toy, u32> {
        let aliases = aliases.iter().map(ToString::to_string).collect();
        Entry::new(Toy { name, aliases }, move |_, _| Ok(value))
    }

    fn value(reg: &Registry<Toy, u32>, name: &str) -> u32 {
        let entry = reg.lookup(name).unwrap_or_else(|e| panic!("{e}"));
        entry.resolve(&Spec::new(name), 1).expect("toys resolve")
    }

    /// The table's rules, for every registry at once: a canonical name
    /// replaces its own entry in place, a name that matches another
    /// entry's alias is appended and takes the spelling over, an alias
    /// never displaces a canonical name, and an unknown name lists the
    /// canonical names and suggests the nearest name or alias.
    #[test]
    fn the_table_registers_looks_up_and_suggests_by_name_and_alias() {
        let mut reg = Registry::default();
        reg.register(toy("sequential", &["seq"], 1))
            .register(toy("random", &[], 2))
            .register(toy("random", &[], 3));
        assert_eq!(reg.names(), ["sequential", "random"], "replaced in place");
        assert_eq!((value(&reg, "seq"), value(&reg, "random")), (1, 3));

        reg.register(toy("seq", &[], 4));
        assert_eq!(reg.names(), ["sequential", "random", "seq"], "appended");
        assert_eq!((value(&reg, "seq"), value(&reg, "sequential")), (4, 1));

        reg.register(toy("other", &["random", "rnd"], 5));
        assert_eq!((value(&reg, "random"), value(&reg, "rnd")), (3, 5));

        let err = reg.lookup("rndd").unwrap_err();
        let SpecError::UnknownName {
            kind,
            known,
            suggestion,
            ..
        } = &err
        else {
            panic!("{err}")
        };
        assert_eq!(*kind, "toy");
        assert_eq!(known, &["sequential", "random", "seq", "other"]);
        assert_eq!(suggestion.as_deref(), Some("rnd"), "an alias is nearest");
    }

    #[test]
    fn error_display_lists_registry_contents() {
        let err = SpecError::UnknownName {
            name: "petersen".into(),
            kind: "algorithm",
            known: vec!["peterson".into(), "bakery".into()],
            suggestion: Some("peterson".into()),
        };
        let msg = err.to_string();
        assert!(msg.contains("did you mean `peterson`"));
        assert!(msg.contains("peterson, bakery"));
    }
}
