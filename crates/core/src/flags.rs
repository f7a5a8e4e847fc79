//! Communication-kind selection flags.

use mim_mpisim::MsgKind;

/// Bitwise combination of communication kinds, selecting which monitored
/// data a query returns (paper constants `MPI_M_P2P_ONLY`,
/// `MPI_M_COLL_ONLY`, `MPI_M_OSC_ONLY`, `MPI_M_ALL_COMM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flags(u32);

impl Flags {
    /// Point-to-point communications only (`MPI_M_P2P_ONLY`).
    pub const P2P_ONLY: Flags = Flags(1);
    /// Collective communications only — seen *after* decomposition into
    /// point-to-point messages (`MPI_M_COLL_ONLY`).
    pub const COLL_ONLY: Flags = Flags(2);
    /// One-sided communications only (`MPI_M_OSC_ONLY`).
    pub const OSC_ONLY: Flags = Flags(4);
    /// All communications (`MPI_M_ALL_COMM`).
    pub const ALL_COMM: Flags = Flags(7);

    /// True when `other`'s kinds are all selected.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when this selection includes the kind of a wire message.
    pub fn includes_kind(self, kind: MsgKind) -> bool {
        self.contains(Flags::from_kind(kind))
    }

    /// The flag class of a wire-message kind.
    pub fn from_kind(kind: MsgKind) -> Flags {
        match kind {
            MsgKind::P2pUser => Flags::P2P_ONLY,
            MsgKind::Collective => Flags::COLL_ONLY,
            MsgKind::OneSided => Flags::OSC_ONLY,
        }
    }

    /// Index of a kind in per-kind storage arrays.
    pub(crate) fn kind_index(kind: MsgKind) -> usize {
        match kind {
            MsgKind::P2pUser => 0,
            MsgKind::Collective => 1,
            MsgKind::OneSided => 2,
        }
    }

    /// Per-kind indices selected by this flag combination.
    pub(crate) fn selected_indices(self) -> impl Iterator<Item = usize> {
        let bits = self.0;
        (0..3).filter(move |i| bits & (1 << i) != 0)
    }
}

impl std::ops::BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_comm_is_union() {
        assert_eq!(Flags::P2P_ONLY | Flags::COLL_ONLY | Flags::OSC_ONLY, Flags::ALL_COMM);
    }

    #[test]
    fn kind_selection() {
        assert!(Flags::P2P_ONLY.includes_kind(MsgKind::P2pUser));
        assert!(!Flags::P2P_ONLY.includes_kind(MsgKind::Collective));
        assert!(Flags::ALL_COMM.includes_kind(MsgKind::OneSided));
        let combo = Flags::P2P_ONLY | Flags::OSC_ONLY;
        assert!(combo.includes_kind(MsgKind::OneSided));
        assert!(!combo.includes_kind(MsgKind::Collective));
    }

    #[test]
    fn selected_indices_match_kinds() {
        let v: Vec<usize> = (Flags::COLL_ONLY | Flags::OSC_ONLY).selected_indices().collect();
        assert_eq!(v, vec![1, 2]);
        let all: Vec<usize> = Flags::ALL_COMM.selected_indices().collect();
        assert_eq!(all, vec![0, 1, 2]);
    }
}
