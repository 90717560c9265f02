//! The byte-stable control-plane decision journal.
//!
//! Every reaction the control plane takes — a scale decision, an
//! ejection, a scale-up or scale-down pod step, an admission limit
//! change — appends one [`JournalEntry`]. The journal is the
//! determinism contract made visible: the replay tests run the same
//! seeded experiment twice and compare the rendered journals *byte for
//! byte*. To make that comparison meaningful the format is integers-only (virtual milliseconds and
//! the two action operands) with a fixed field order — no floats, no
//! hash-ordered maps, no timestamps from a wall clock.

use std::time::Duration;

/// What the control plane did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Autoscaler added replicas (`a` = from, `b` = to).
    ScaleUp,
    /// Autoscaler released a replica (`a` = from, `b` = to).
    ScaleDown,
    /// Outlier detector ejected a backend (`a` = backend,
    /// `b` = probation end in virtual ms).
    Eject,
    /// An ejected backend rejoined rotation (`a` = backend).
    Readmit,
    /// Scale-up created a pod (`a` = pod id).
    SurgeCreate,
    /// Scale-down began draining a pod (`a` = pod id).
    DrainBegin,
    /// Scale-down terminated a drained pod (`a` = pod id).
    Terminate,
    /// Admission controller widened its concurrency window
    /// (`a` = old limit, `b` = new limit, milli-units).
    LimitRaise,
    /// Admission controller cut its concurrency window
    /// (`a` = old limit, `b` = new limit, milli-units).
    LimitCut,
}

impl ControlAction {
    /// Stable lowercase label used in the rendered journal.
    pub fn name(&self) -> &'static str {
        match self {
            ControlAction::ScaleUp => "scale-up",
            ControlAction::ScaleDown => "scale-down",
            ControlAction::Eject => "eject",
            ControlAction::Readmit => "readmit",
            ControlAction::SurgeCreate => "surge-create",
            ControlAction::DrainBegin => "drain-begin",
            ControlAction::Terminate => "terminate",
            ControlAction::LimitRaise => "limit-raise",
            ControlAction::LimitCut => "limit-cut",
        }
    }
}

/// One journaled decision. `a` and `b` are action-specific operands
/// (see [`ControlAction`]); unused operands are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Virtual milliseconds since simulation time zero.
    pub at_ms: u64,
    /// What happened.
    pub action: ControlAction,
    /// First operand.
    pub a: i64,
    /// Second operand.
    pub b: i64,
}

/// An append-only list of control decisions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionJournal {
    /// Entries in decision order.
    pub entries: Vec<JournalEntry>,
}

impl DecisionJournal {
    /// An empty journal.
    pub fn new() -> DecisionJournal {
        DecisionJournal::default()
    }

    /// Appends one decision at virtual time `at`.
    pub fn push(&mut self, at: Duration, action: ControlAction, a: i64, b: i64) {
        self.entries.push(JournalEntry {
            at_ms: at.as_millis() as u64,
            action,
            a,
            b,
        });
    }

    /// Entries of one action kind.
    pub fn of(&self, action: ControlAction) -> Vec<&JournalEntry> {
        self.entries.iter().filter(|e| e.action == action).collect()
    }

    /// Renders the journal as a JSON array with a fixed field order and
    /// integer-only values; equal journals render to equal bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"at_ms\": {}, \"action\": \"{}\", \"a\": {}, \"b\": {}}}",
                e.at_ms,
                e.action.name(),
                e.a,
                e.b
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn sample() -> DecisionJournal {
        let mut j = DecisionJournal::new();
        j.push(ms(1_000), ControlAction::ScaleUp, 2, 4);
        j.push(ms(2_500), ControlAction::Eject, 1, 12_500);
        j.push(ms(12_500), ControlAction::Readmit, 1, 0);
        j.push(ms(20_000), ControlAction::DrainBegin, 0, 0);
        j.push(ms(21_000), ControlAction::Terminate, 0, 0);
        j.push(ms(30_000), ControlAction::ScaleDown, 4, 3);
        j
    }

    #[test]
    fn equal_journals_render_to_equal_bytes() {
        assert_eq!(sample().render_json(), sample().render_json());
    }

    #[test]
    fn empty_journal_roundtrips() {
        assert_eq!(DecisionJournal::new().render_json(), "[]");
    }

    #[test]
    fn of_filters_by_action() {
        let j = sample();
        assert_eq!(j.of(ControlAction::ScaleUp).len(), 1);
        assert_eq!(j.of(ControlAction::Eject)[0].b, 12_500);
        assert_eq!(j.of(ControlAction::LimitCut).len(), 0);
    }
}
