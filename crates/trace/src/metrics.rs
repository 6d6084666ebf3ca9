//! A tiny thread-local metrics registry.
//!
//! Instrumented layers publish named gauges and counters here;
//! `figures --metrics` dumps a sorted snapshot per scenario. Like the
//! trace path, every publisher goes through macros gated on
//! [`crate::ENABLED`] plus the runtime [`enabled`] switch, so plain
//! release builds pay nothing and even debug runs skip the registry
//! unless a harness opts in.
//!
//! Names are static strings in `layer.noun` form (`net.ecn_marks`,
//! `db.lock_waits`, `sim.events`). A `BTreeMap` keeps snapshots in
//! deterministic sorted order.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REG: RefCell<BTreeMap<&'static str, f64>> = const { RefCell::new(BTreeMap::new()) };
}

/// Runtime switch (per thread). Off by default; harnesses that want a
/// per-scenario dump turn it on around each run.
pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Turn collection on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Set gauge `name` to `v`.
pub fn gauge_set(name: &'static str, v: f64) {
    REG.with(|r| {
        r.borrow_mut().insert(name, v);
    });
}

/// Raise gauge `name` to `v` if `v` is larger (high-water mark).
pub fn gauge_max(name: &'static str, v: f64) {
    REG.with(|r| {
        let mut reg = r.borrow_mut();
        let e = reg.entry(name).or_insert(f64::MIN);
        if v > *e {
            *e = v;
        }
    });
}

/// Add `v` to counter `name`.
pub fn counter_add(name: &'static str, v: f64) {
    REG.with(|r| {
        *r.borrow_mut().entry(name).or_insert(0.0) += v;
    });
}

/// Sorted snapshot of every metric.
pub fn snapshot() -> Vec<(&'static str, f64)> {
    REG.with(|r| r.borrow().iter().map(|(k, v)| (*k, *v)).collect())
}

/// Drop all metrics (start of a scenario).
pub fn clear() {
    REG.with(|r| r.borrow_mut().clear());
}

/// Publish a gauge: `metric_gauge!("net.queue_depth", depth)`.
/// Compiles to nothing when [`crate::ENABLED`] is `false`.
#[macro_export]
macro_rules! metric_gauge {
    ($name:expr, $v:expr) => {
        if $crate::ENABLED && $crate::metrics::enabled() {
            $crate::metrics::gauge_set($name, ($v) as f64);
        }
    };
}

/// Publish a high-water mark: `metric_max!("net.queue_depth_max", depth)`.
#[macro_export]
macro_rules! metric_max {
    ($name:expr, $v:expr) => {
        if $crate::ENABLED && $crate::metrics::enabled() {
            $crate::metrics::gauge_max($name, ($v) as f64);
        }
    };
}

/// Bump a counter: `metric_add!("db.buffer_hits", 1)`.
#[macro_export]
macro_rules! metric_add {
    ($name:expr) => {
        $crate::metric_add!($name, 1)
    };
    ($name:expr, $v:expr) => {
        if $crate::ENABLED && $crate::metrics::enabled() {
            $crate::metrics::counter_add($name, ($v) as f64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_and_snapshots_sorted() {
        set_enabled(true);
        clear();
        counter_add("z.count", 2.0);
        counter_add("z.count", 3.0);
        gauge_set("a.gauge", 7.0);
        gauge_max("m.max", 5.0);
        gauge_max("m.max", 3.0);
        let snap = snapshot();
        assert_eq!(
            snap,
            vec![("a.gauge", 7.0), ("m.max", 5.0), ("z.count", 5.0)]
        );
        clear();
        assert!(snapshot().is_empty());
        set_enabled(false);
    }

    #[test]
    fn macros_respect_runtime_switch() {
        set_enabled(false);
        clear();
        metric_add!("off.count");
        assert!(snapshot().is_empty());
        set_enabled(true);
        metric_add!("on.count");
        metric_gauge!("on.gauge", 2);
        metric_max!("on.max", 9);
        let snap = snapshot();
        assert_eq!(
            snap,
            vec![("on.count", 1.0), ("on.gauge", 2.0), ("on.max", 9.0)]
        );
        clear();
        set_enabled(false);
    }
}
