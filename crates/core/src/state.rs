//! The processor lifecycle (Figure 6(e)).
//!
//! "First the processor starts from and ends with the release state that
//! is not used and allocated. After programming the switches in a minimum
//! AP, the processor turns into an inactive state that is ready to execute
//! but not read and write protected from others. … the region is invoked
//! as the scaled active AP. The active processor can be in an inactive
//! state by clearing the read and/or write protection. In an inactive
//! state, others can access its memory blocks. … The sleep state is ready
//! to execute and is read- and write-protected from others. … the sleep
//! state can be used for processor-level synchronization."

use std::fmt;

/// The four lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProcState {
    /// Not allocated; the clusters are free.
    Release,
    /// Allocated and ready; *not* protected — others may access its
    /// memory blocks (mailbox writes land here).
    Inactive,
    /// Executing; read/write protected from others.
    Active,
    /// Ready but dormant, protected; wakes on a timer or event
    /// (processor-level synchronisation).
    Sleep,
}

impl ProcState {
    /// Whether a transition `self → to` is legal per Figure 6(e).
    pub fn can_transition(self, to: ProcState) -> bool {
        use ProcState::*;
        matches!(
            (self, to),
            (Release, Inactive)   // gather: switches programmed
                | (Inactive, Active)   // invoke (protections set)
                | (Active, Inactive)   // clear protections
                | (Active, Sleep)      // wait for event/timer
                | (Sleep, Active)      // wake
                | (Inactive, Release) // down-scale
        )
    }

    /// `"<from>><to>"` — the name of the `core.lifecycle` trace instant
    /// a state write records. Defined for every pair, legal or not, so a
    /// trace shows an illegal write as it happened.
    pub(crate) fn edge_name(self, to: ProcState) -> &'static str {
        const NAMES: [[&str; 4]; 4] = [
            [
                "release>release",
                "release>inactive",
                "release>active",
                "release>sleep",
            ],
            [
                "inactive>release",
                "inactive>inactive",
                "inactive>active",
                "inactive>sleep",
            ],
            [
                "active>release",
                "active>inactive",
                "active>active",
                "active>sleep",
            ],
            [
                "sleep>release",
                "sleep>inactive",
                "sleep>active",
                "sleep>sleep",
            ],
        ];
        NAMES[self as usize][to as usize]
    }

    /// Whether other processors may read/write this processor's memory
    /// blocks.
    pub fn others_may_access_memory(self) -> bool {
        matches!(self, ProcState::Inactive)
    }

    /// Whether the processor may fetch global configuration data and
    /// execute.
    pub fn may_execute(self) -> bool {
        matches!(self, ProcState::Active)
    }
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcState::Release => "release",
            ProcState::Inactive => "inactive",
            ProcState::Active => "active",
            ProcState::Sleep => "sleep",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProcState::*;

    #[test]
    fn legal_transitions() {
        assert!(Release.can_transition(Inactive));
        assert!(Inactive.can_transition(Active));
        assert!(Active.can_transition(Inactive));
        assert!(Active.can_transition(Sleep));
        assert!(Sleep.can_transition(Active));
        assert!(Inactive.can_transition(Release));
    }

    #[test]
    fn illegal_transitions() {
        // No shortcut from release to active: switches must be programmed
        // and the processor pass through inactive.
        assert!(!Release.can_transition(Active));
        assert!(!Release.can_transition(Sleep));
        // Sleep is protected: it cannot be released or deactivated
        // without waking first.
        assert!(!Sleep.can_transition(Release));
        assert!(!Sleep.can_transition(Inactive));
        // Active regions cannot vanish without clearing protections.
        assert!(!Active.can_transition(Release));
        // Self-transitions are not in the diagram.
        for s in [Release, Inactive, Active, Sleep] {
            assert!(!s.can_transition(s));
        }
    }

    #[test]
    fn edge_names_read_from_then_to() {
        for from in [Release, Inactive, Active, Sleep] {
            for to in [Release, Inactive, Active, Sleep] {
                assert_eq!(from.edge_name(to), format!("{from}>{to}"));
            }
        }
    }

    #[test]
    fn protection_rules() {
        assert!(Inactive.others_may_access_memory());
        assert!(!Active.others_may_access_memory());
        assert!(!Sleep.others_may_access_memory());
        assert!(!Release.others_may_access_memory());
        assert!(Active.may_execute());
        assert!(!Inactive.may_execute());
        assert!(!Sleep.may_execute());
    }
}
