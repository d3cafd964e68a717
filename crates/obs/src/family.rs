//! Labeled metric families: one lazily registered handle per combination
//! of fixed label vocabularies.
//!
//! A family's series carry their labels in the registry name,
//! `name{k1=v1,k2=v2}`, which the Prometheus renderer decodes. Every label
//! takes its values from a fixed vocabulary, so cardinality is bounded by
//! construction. Each combination has one `OnceLock` cell: the first hit
//! formats the series name and registers it, every later hit is one
//! `OnceLock` load, with no lock and no allocation.

use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::{Counter, Histogram, Recorder};

/// One label key and the values it may take.
pub type Label = (&'static str, &'static [&'static str]);

/// A family of `M` handles (counters or histograms) over `N` labels.
pub struct MetricFamily<M, const N: usize> {
    rec: Recorder,
    name: &'static str,
    labels: [Label; N],
    register: fn(&Recorder, &str) -> M,
    /// Row-major over the label vocabularies, first label outermost.
    cells: Box<[OnceLock<M>]>,
}

impl<const N: usize> MetricFamily<Counter, N> {
    /// A family of counters named `name` on `rec`.
    pub fn counters(rec: &Recorder, name: &'static str, labels: [Label; N]) -> Self {
        Self::new(rec, name, labels, Recorder::counter)
    }
}

impl<const N: usize> MetricFamily<Histogram, N> {
    /// A family of log₂ histograms named `name` on `rec`.
    pub fn histograms(rec: &Recorder, name: &'static str, labels: [Label; N]) -> Self {
        Self::new(rec, name, labels, Recorder::histogram)
    }
}

impl<M, const N: usize> MetricFamily<M, N> {
    fn new(
        rec: &Recorder,
        name: &'static str,
        labels: [Label; N],
        register: fn(&Recorder, &str) -> M,
    ) -> Self {
        let cells = labels.iter().map(|(_, values)| values.len()).product();
        MetricFamily {
            rec: rec.clone(),
            name,
            labels,
            register,
            cells: (0..cells).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The handle for the series whose `k`-th label takes value
    /// `labels[k].1[at[k]]`, registered on first use.
    ///
    /// # Panics
    ///
    /// If an index lies outside its label's vocabulary.
    pub fn get(&self, at: [usize; N]) -> &M {
        let mut cell = 0;
        for (&i, (key, values)) in at.iter().zip(&self.labels) {
            assert!(
                i < values.len(),
                "{}: no value {i} for label {key}",
                self.name
            );
            cell = cell * values.len() + i;
        }
        self.cells[cell].get_or_init(|| {
            let mut series = format!("{}{{", self.name);
            for (k, (&i, (key, values))) in at.iter().zip(&self.labels).enumerate() {
                let sep = if k == 0 { "" } else { "," };
                let _ = write!(series, "{sep}{key}={}", values[i]);
            }
            series.push('}');
            (self.register)(&self.rec, &series)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLORS: &[&str] = &["red", "blue"];
    const SIZES: &[&str] = &["s", "m", "l"];

    #[test]
    fn series_names_carry_every_label_in_order() {
        let rec = Recorder::enabled();
        let runs = MetricFamily::counters(&rec, "t.runs", [("color", COLORS), ("size", SIZES)]);
        runs.get([1, 2]).add(3);
        runs.get([0, 0]).incr();
        let lat = MetricFamily::histograms(&rec, "t.lat_ns", [("color", COLORS)]);
        lat.get([1]).record(5);
        let snap = rec.registry().expect("enabled").snapshot();
        assert_eq!(snap.counters["t.runs{color=blue,size=l}"], 3);
        assert_eq!(snap.counters["t.runs{color=red,size=s}"], 1);
        assert_eq!(snap.histograms["t.lat_ns{color=blue}"].count(), 1);
    }

    #[test]
    fn registration_is_lazy_per_cell() {
        let rec = Recorder::enabled();
        let runs = MetricFamily::counters(&rec, "t.runs", [("color", COLORS), ("size", SIZES)]);
        let names = |rec: &Recorder| -> Vec<String> {
            let snap = rec.registry().expect("enabled").snapshot();
            snap.counters.into_keys().collect()
        };
        assert!(names(&rec).is_empty(), "nothing registers before first use");
        runs.get([0, 1]);
        assert_eq!(names(&rec), ["t.runs{color=red,size=m}"]);
    }

    #[test]
    fn every_call_returns_the_same_handle() {
        let rec = Recorder::enabled();
        let runs = MetricFamily::counters(&rec, "t.runs", [("size", SIZES)]);
        let first: *const Counter = runs.get([2]);
        for _ in 0..3 {
            assert!(std::ptr::eq(first, runs.get([2])));
            runs.get([2]).incr();
        }
        assert!(!std::ptr::eq(first, runs.get([1])));
        let snap = rec.registry().expect("enabled").snapshot();
        assert_eq!(snap.counters["t.runs{size=l}"], 3);
    }

    #[test]
    #[should_panic(expected = "no value 3 for label size")]
    fn an_index_outside_the_vocabulary_panics() {
        let rec = Recorder::enabled();
        MetricFamily::counters(&rec, "t.runs", [("color", COLORS), ("size", SIZES)]).get([0, 3]);
    }
}
