//! `mim-analyze` — static communication-graph verification.
//!
//! The monitoring library observes communication *dynamically*; this crate
//! is its static complement: it proves a communication plan deadlock-free —
//! or pinpoints the circular wait, rank by rank — without running the DES
//! or the threaded runtime at all.
//!
//! The pipeline:
//!
//! 1. anything that can describe its communication ahead of time (an
//!    `mpisim` `Schedule`, the collective generators, the app kernels in
//!    `mim-apps`, a JSON plan file) implements [`CommPlan`] and lowers
//!    itself into a per-rank operation outline ([`Program`]);
//! 2. what executing one op of the outline *does* — per-`(comm, src, dst,
//!    tag)` FIFO channels, eager sends, blocking receives (wildcards take
//!    the earliest arrival unless told otherwise), collectives and fences
//!    as barrier occurrences per communicator and per window — is the plan
//!    interpreter, [`interp::State`].  It has three drivers, each with its
//!    own scheduling order: [`analyze`]'s canonical replay (`check`),
//!    the race pass of step 3, and `mim-explore`'s model executor;
//! 3. a vector-clock happens-before pass (`race`) classifies every
//!    wildcard receive as benign or racy, yielding a determinism verdict
//!    (`Deterministic | SchedSensitive`) orthogonal to the deadlock
//!    lattice plus the [`IndependenceMap`] `mim-explore` uses to prune
//!    its schedule search;
//! 4. the result is a [`Report`]: a verdict on the deadlock lattice
//!    (`DeadlockFree ⊑ PotentialDeadlock ⊑ DefiniteDeadlock`, with
//!    `Malformed` at the bottom), the determinism axis, *all* findings of
//!    the run as coded diagnostics (`MIM-A001`…), and per-channel traffic
//!    totals — rendered human-readable or as JSON.
//!
//! Soundness is cross-validated against the simulator: property tests in
//! `mim-mpisim` assert that a `DeadlockFree` verdict implies the DES
//! evaluator completes and a `DefiniteDeadlock` verdict reproduces the
//! runtime's deadline panic.

mod check;
pub mod diag;
pub mod interp;
pub mod json;
mod plan;
mod race;

pub use check::{analyze, analyze_program};
pub use diag::{Code, Report, Verdict};
pub use json::{program_from_json, Json};
pub use plan::{CollKind, CommId, CommPlan, Op, Program, Src, Tag, WinId, WORLD};
pub use race::{Determinism, IndependenceMap};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{ChannelUse, Loc, Severity};

    fn two_rank(ops0: Vec<Op>, ops1: Vec<Op>) -> Program {
        let mut p = Program::new("test", 2);
        for op in ops0 {
            p.push(0, op);
        }
        for op in ops1 {
            p.push(1, op);
        }
        p
    }

    fn send(dst: usize) -> Op {
        Op::Send { comm: WORLD, dst, tag: 0, bytes: 8 }
    }

    fn recv(src: usize) -> Op {
        Op::Recv { comm: WORLD, src: Src::Rank(src), tag: Tag::Is(0) }
    }

    #[test]
    fn ping_pong_is_deadlock_free() {
        let p = two_rank(vec![send(1), recv(1)], vec![recv(0), send(0)]);
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::DeadlockFree);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.channels.len(), 2);
    }

    #[test]
    fn crossed_order_reports_the_cycle() {
        // Both ranks receive first: the textbook circular wait.
        let p = two_rank(vec![recv(1), send(1)], vec![recv(0), send(0)]);
        let r = analyze(&p);
        let Verdict::DefiniteDeadlock { cycle } = &r.verdict else {
            panic!("expected definite deadlock, got {:?}", r.verdict);
        };
        assert_eq!(cycle.len(), 2, "cycle: {cycle:?}");
        let ranks: Vec<usize> = cycle.iter().map(|e| e.rank).collect();
        let waits: Vec<usize> = cycle.iter().map(|e| e.waits_for).collect();
        assert!(ranks.contains(&0) && ranks.contains(&1));
        assert!(waits.contains(&0) && waits.contains(&1));
        // Every edge of the reported cycle is at step 0 (both blocked on
        // their first op).
        assert!(cycle.iter().all(|e| e.step == 0));
        assert!(r.diags.iter().any(|d| d.code == Code::A002 && d.severity == Severity::Error));
    }

    #[test]
    fn three_rank_cycle_is_found() {
        // 0 waits on 2, 2 waits on 1, 1 waits on 0.
        let mut p = Program::new("ring3", 3);
        p.push(0, recv(2));
        p.push(0, send(1));
        p.push(1, recv(0));
        p.push(1, send(2));
        p.push(2, recv(1));
        p.push(2, send(0));
        let r = analyze(&p);
        let Verdict::DefiniteDeadlock { cycle } = &r.verdict else {
            panic!("expected definite deadlock, got {:?}", r.verdict);
        };
        assert_eq!(cycle.len(), 3);
        // The cycle closes: each edge's target is the next edge's rank.
        for (i, e) in cycle.iter().enumerate() {
            assert_eq!(e.waits_for, cycle[(i + 1) % 3].rank);
        }
    }

    #[test]
    fn unmatched_send_flagged() {
        let p = two_rank(vec![send(1), send(1)], vec![recv(0)]);
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::DeadlockFree);
        let d: Vec<_> = r.diags.iter().filter(|d| d.code == Code::A003).collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("never received"), "{}", d[0].message);
    }

    #[test]
    fn orphan_receive_flagged() {
        // Rank 1 terminates without sending; rank 0 waits forever.
        let p = two_rank(vec![recv(1)], vec![]);
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::DefiniteDeadlock { .. }), "{:?}", r.verdict);
        assert!(r.diags.iter().any(|d| d.code == Code::A004
            && d.message.contains("terminated")
            && d.loc == Some(Loc { rank: 0, step: 0 })));
    }

    #[test]
    fn wildcard_completion_is_potential() {
        let p =
            two_rank(vec![Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any }], vec![send(0)]);
        let r = analyze(&p);
        let Verdict::PotentialDeadlock { wildcard_sites } = &r.verdict else {
            panic!("expected potential deadlock, got {:?}", r.verdict);
        };
        assert_eq!(wildcard_sites, &[Loc { rank: 0, step: 0 }]);
        assert!(r.is_clean(), "wildcards alone are a warning, not an error: {r}");
        assert!(r.diags.iter().any(|d| d.code == Code::A005));
    }

    #[test]
    fn wildcard_stall_is_potential_not_definite() {
        // Rank 0 blocks on a wildcard receive nobody satisfies.
        let p =
            two_rank(vec![Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any }], vec![recv(0)]);
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::PotentialDeadlock { .. }), "{:?}", r.verdict);
        assert!(r.diags.iter().any(|d| d.code == Code::A010 && d.severity == Severity::Error));
    }

    #[test]
    fn wildcard_takes_earliest_arrival() {
        // Rank 1 then rank 2 send; the wildcard receive pairs with rank 1's
        // (earlier) message, leaving rank 2's for the specific receive.
        let mut p = Program::new("canon", 3);
        p.push(1, send(0));
        p.push(2, send(0));
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        p.push(0, recv(2));
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::PotentialDeadlock { .. }));
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn collective_mismatch_flagged() {
        let p = two_rank(
            vec![Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None }],
            vec![Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None }],
        );
        let r = analyze(&p);
        assert!(r.diags.iter().any(|d| d.code == Code::A006), "{r}");
    }

    #[test]
    fn collective_root_mismatch_flagged() {
        let p = two_rank(
            vec![Op::Coll { comm: WORLD, kind: CollKind::Bcast, root: Some(0) }],
            vec![Op::Coll { comm: WORLD, kind: CollKind::Bcast, root: Some(1) }],
        );
        let r = analyze(&p);
        assert!(r.diags.iter().any(|d| d.code == Code::A007), "{r}");
    }

    #[test]
    fn missing_collective_participant_flagged() {
        let p =
            two_rank(vec![Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None }], vec![]);
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::DefiniteDeadlock { .. }));
        assert!(r.diags.iter().any(
            |d| d.code == Code::A006 && d.message.contains("terminated without participating")
        ));
    }

    #[test]
    fn cross_communicator_barrier_deadlock_found() {
        // Comm A = {0, 1}, comm B = {0, 1}: rank 0 barriers on A then B,
        // rank 1 on B then A — a circular wait between two barriers.
        let mut p = Program::new("xcomm", 2);
        let a = p.add_comm(vec![0, 1]);
        let b = p.add_comm(vec![0, 1]);
        p.push(0, Op::Coll { comm: a, kind: CollKind::Barrier, root: None });
        p.push(0, Op::Coll { comm: b, kind: CollKind::Barrier, root: None });
        p.push(1, Op::Coll { comm: b, kind: CollKind::Barrier, root: None });
        p.push(1, Op::Coll { comm: a, kind: CollKind::Barrier, root: None });
        let r = analyze(&p);
        let Verdict::DefiniteDeadlock { cycle } = &r.verdict else {
            panic!("expected definite deadlock, got {:?}", r.verdict);
        };
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn conflicting_puts_in_one_epoch_flagged() {
        let mut p = Program::new("rma", 3);
        let w = p.add_window(WORLD);
        p.push(0, Op::Put { win: w, target: 2, offset: 0, bytes: 16 });
        p.push(1, Op::Put { win: w, target: 2, offset: 8, bytes: 16 });
        for r in 0..3 {
            p.push(r, Op::Fence { win: w });
        }
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::DeadlockFree);
        assert!(r.diags.iter().any(|d| d.code == Code::A008), "{r}");
        // Disjoint ranges or accumulate pairs are fine.
        let mut p = Program::new("rma-ok", 3);
        let w = p.add_window(WORLD);
        p.push(0, Op::Accumulate { win: w, target: 2, offset: 0, bytes: 16 });
        p.push(1, Op::Accumulate { win: w, target: 2, offset: 8, bytes: 16 });
        p.push(0, Op::Put { win: w, target: 1, offset: 0, bytes: 8 });
        p.push(2, Op::Put { win: w, target: 1, offset: 8, bytes: 8 });
        for r in 0..3 {
            p.push(r, Op::Fence { win: w });
        }
        let r = analyze(&p);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unfenced_epoch_flagged() {
        let mut p = Program::new("rma-unfenced", 2);
        let w = p.add_window(WORLD);
        p.push(0, Op::Put { win: w, target: 1, offset: 0, bytes: 8 });
        let r = analyze(&p);
        assert!(r.diags.iter().any(|d| d.code == Code::A009), "{r}");
    }

    #[test]
    fn malformed_plan_is_bottom() {
        let p = two_rank(vec![send(7)], vec![]);
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::Malformed);
        assert!(r.diags.iter().any(|d| d.code == Code::A001 && d.message.contains("out of range")));
        // Rank outside its communicator is A001 too.
        let mut p = Program::new("nonmember", 3);
        let sub = p.add_comm(vec![0, 1]);
        p.push(2, Op::Coll { comm: sub, kind: CollKind::Barrier, root: None });
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::Malformed);
        assert!(r.diags.iter().any(|d| d.message.contains("not a member")));
    }

    #[test]
    fn subcommunicator_traffic_is_scoped() {
        // The same (src, dst, tag) triple on two comms forms two channels.
        let mut p = Program::new("scoped", 2);
        let sub = p.add_comm(vec![0, 1]);
        p.push(0, send(1));
        p.push(0, Op::Send { comm: sub, dst: 1, tag: 0, bytes: 32 });
        p.push(1, Op::Recv { comm: sub, src: Src::Rank(0), tag: Tag::Is(0) });
        p.push(1, recv(0));
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::DeadlockFree, "{r}");
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.channels.len(), 2);
        assert_eq!(r.channels.iter().map(|c| c.bytes).sum::<u64>(), 40);
    }

    #[test]
    fn subcommunicator_membership_errors_are_pinned() {
        // 70 ranks, so membership spans two bitmap words; `sub` lists world
        // rank 130, which does not exist and must not leak into `pair`.
        let mut p = Program::new("members", 70);
        let sub = p.add_comm(vec![130, 65, 2, 1]);
        let pair = p.add_comm(vec![0, 1]);
        let on = |comm, dst| Op::Send { comm, dst, tag: 0, bytes: 8 };
        p.push(0, on(sub, 1)); // rank 0 is no member
        p.push(1, on(sub, 66)); // nor is its peer, 66 (bit 2 of word 1)
        p.push(2, Op::Recv { comm: sub, src: Src::Rank(130), tag: Tag::Is(0) });
        p.push(2, on(pair, 1));
        p.push(65, on(sub, 2)); // fine: both members
        let r = analyze(&p);
        assert_eq!(r.verdict, Verdict::Malformed);
        let got: Vec<_> = r.diags.iter().map(|d| (d.code, d.loc, d.message.as_str())).collect();
        let at = |rank, step| Some(Loc { rank, step });
        assert_eq!(
            got,
            [
                (Code::A001, at(0, 0), "rank 0 is not a member of comm 1"),
                (Code::A001, at(1, 0), "peer rank 66 is not a member of comm 1"),
                (Code::A001, at(2, 0), "peer rank 130 is out of range (nranks = 70)"),
                (Code::A001, at(2, 1), "rank 2 is not a member of comm 2"),
            ]
        );
    }

    #[test]
    fn channel_totals_are_merged_per_comm_and_tag() {
        let mut p = Program::new("totals", 3);
        let sub = p.add_comm(vec![0, 1]);
        let send = |comm, dst, tag, bytes| Op::Send { comm, dst, tag, bytes };
        let recv = |comm, src, tag| Op::Recv { comm, src: Src::Rank(src), tag: Tag::Is(tag) };
        for op in [
            send(WORLD, 1, 5, 10),
            send(sub, 1, 0, 20),
            send(WORLD, 1, 5, 30),
            send(WORLD, 2, 0, 1),
            send(sub, 1, 0, 40),
            send(WORLD, 1, 0, 2),
            recv(WORLD, 2, 3),
            recv(WORLD, 2, 3),
        ] {
            p.push(0, op);
        }
        for op in [recv(sub, 0, 0), recv(WORLD, 0, 5), recv(sub, 0, 0), recv(WORLD, 0, 5)] {
            p.push(1, op);
        }
        p.push(1, recv(WORLD, 0, 0));
        for op in [send(WORLD, 0, 3, 7), recv(WORLD, 0, 0), send(WORLD, 0, 3, 7)] {
            p.push(2, op);
        }
        let r = analyze(&p);
        assert!(r.is_clean(), "{r}");
        let use_ = |comm, src, dst, tag, messages, bytes| ChannelUse {
            comm,
            src,
            dst,
            tag,
            messages,
            bytes,
        };
        assert_eq!(
            r.channels,
            [
                use_(WORLD, 0, 1, 0, 1, 2),
                use_(WORLD, 0, 1, 5, 2, 40),
                use_(WORLD, 0, 2, 0, 1, 1),
                use_(WORLD, 2, 0, 3, 2, 14),
                use_(sub, 0, 1, 0, 2, 60),
            ]
        );
        // A stalled replay counts only the sends it executed.
        let p = two_rank(
            vec![send(WORLD, 1, 0, 8), recv(WORLD, 1, 0), send(WORLD, 1, 0, 8)],
            vec![recv(WORLD, 0, 1)],
        );
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::DefiniteDeadlock { .. }), "{r}");
        assert_eq!(r.channels, [use_(WORLD, 0, 1, 0, 1, 8)]);
    }

    #[test]
    fn report_renders_both_formats() {
        let p = two_rank(vec![recv(1), send(1)], vec![recv(0), send(0)]);
        let r = analyze(&p);
        let pretty = r.to_string();
        assert!(pretty.contains("definite deadlock"), "{pretty}");
        assert!(pretty.contains("MIM-A002"), "{pretty}");
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"mim-analyze-report-v2\""), "{json}");
        assert!(json.contains("\"determinism\":{\"kind\":\"deterministic\"}"), "{json}");
        assert!(json.contains("\"independence\":{\"wildcard_sites\":0"), "{json}");
        assert!(json.contains("\"kind\":\"definite_deadlock\""), "{json}");
        assert!(json.contains("\"cycle\":["), "{json}");
        // The JSON must round-trip through our own parser.
        let doc = Json::parse(&json).unwrap();
        assert_eq!(
            doc.get("verdict").and_then(|v| v.get("kind")).and_then(Json::as_str),
            Some("definite_deadlock")
        );
    }

    #[test]
    fn json_plan_round_trip() {
        let text = r#"{
            "name": "crossed",
            "nranks": 2,
            "ranks": [
                [{"op": "recv", "src": 1}, {"op": "send", "dst": 1, "bytes": 4}],
                [{"op": "recv", "src": 0}, {"op": "send", "dst": 0, "bytes": 4}]
            ]
        }"#;
        let p = program_from_json(text).unwrap();
        assert_eq!(p.nranks(), 2);
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::DefiniteDeadlock { .. }));
        // Windows + collectives + wildcards decode too.
        let text = r#"{
            "nranks": 2,
            "comms": [[0, 1]],
            "windows": [1],
            "ranks": [
                [{"op": "put", "win": 0, "target": 1, "bytes": 8},
                 {"op": "fence", "win": 0},
                 {"op": "coll", "kind": "bcast", "root": 0},
                 {"op": "recv", "src": "any", "tag": "any"}],
                [{"op": "fence", "win": 0},
                 {"op": "coll", "kind": "bcast", "root": 0},
                 {"op": "send", "dst": 0}]
            ]
        }"#;
        let p = program_from_json(text).unwrap();
        let r = analyze(&p);
        assert!(matches!(r.verdict, Verdict::PotentialDeadlock { .. }), "{r}");
        assert!(r.is_clean(), "{r}");
        // Every collective kind decodes from the name it prints as.
        for kind in CollKind::ALL {
            let text =
                format!(r#"{{"nranks": 1, "ranks": [[{{"op": "coll", "kind": "{kind}"}}]]}}"#);
            let p = program_from_json(&text).unwrap();
            assert_eq!(p.rank_ops(0), [Op::Coll { comm: WORLD, kind, root: None }]);
        }
    }

    #[test]
    fn json_errors_are_reported() {
        assert!(program_from_json("{").is_err());
        assert!(program_from_json("{}").unwrap_err().contains("nranks"));
        assert!(program_from_json(r#"{"nranks": 1, "ranks": []}"#).unwrap_err().contains("1"));
        assert!(program_from_json(r#"{"nranks": 1, "ranks": [[{"op": "warp", "dst": 0}]]}"#)
            .unwrap_err()
            .contains("unknown op"));
    }
}
