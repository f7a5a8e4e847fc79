#!/usr/bin/env python3
"""Validate a trace dump produced by ``MIM_TRACE=<path>`` (mim-trace).

Usage:
    check_trace.py TRACE_FILE

Accepts both export formats and picks by content (not extension, so a
misnamed file is still checked honestly):

* JSON-lines (``*.jsonl``): one event object per line;
* chrome trace-event JSON (anything else): a ``[``-opened, never-closed
  array of event objects, one per line, as ``about:tracing`` and Perfetto
  accept it.

Checks, in order:

1. every line parses and carries exactly its event type's fields
   (``coll`` optional on sends), in both formats;
2. per-track sequence numbers are strictly increasing (JSONL only — the
   chrome export drops ``seq``);
3. timestamps never go backwards on a track.  The ``des`` track is the
   exception: it serializes one evaluator's per-rank clocks, so the
   monotonicity contract is per (track, simulated rank), not per track;
4. receive/send pairing: the multiset of ``(bytes, comm, tag)`` received
   from rank S on rank D's track must be contained in the multiset sent by
   S to D.  One-sided sends are excluded (puts/gets have no receive event),
   and surplus sends are legal (a message may still be in flight when the
   universe exits).

Exits 0 with a one-line summary, 1 with per-check diagnostics.
"""

import collections
import json
import sys

# Each event type's fields; a trailing ``?`` marks an optional one.
EVENT_FIELDS = {
    "send": {"dst", "bytes", "kind", "comm", "tag", "coll?"},
    "send_failed": {"dst"},
    "recv": {"src", "bytes", "comm", "tag", "uq"},
    "coll_begin": {"name", "comm", "id"},
    "coll_end": {"name", "comm", "id"},
    "session": {"action", "msid"},
    "window": {"msid", "epoch", "events", "bytes"},
    "retry": {"dst", "attempt", "backoff_ns"},
    "rank_crash": {"ops"},
    "rank_join": {"incarnation"},
    "epoch_bump": {"comm", "epoch", "size"},
    "des": {"rank", "op", "peer", "bytes"},
}


def fail(errors, msg):
    if len(errors) < 20:
        errors.append(msg)
    elif len(errors) == 20:
        errors.append("... (further errors suppressed)")


def fields_ok(lineno, kind, fields, errors):
    """Whether ``fields`` is exactly the field set of event type ``kind``."""
    if kind not in EVENT_FIELDS:
        fail(errors, f"line {lineno}: unknown event type {kind!r}")
        return False
    spec = EVENT_FIELDS[kind]
    missing = {f for f in spec if not f.endswith("?")} - fields
    extra = fields - {f.rstrip("?") for f in spec}
    if missing or extra:
        fail(errors, f"line {lineno}: {kind} missing {sorted(missing)}, extra {sorted(extra)}")
    return not (missing or extra)


def parse_jsonl(text, errors):
    """Yield (name, instance, seq, t_ns, type, event_dict) from a JSONL dump.

    ``instance`` is the ``tid`` registration index: a process launching
    several universes registers a fresh ``rank0`` track per universe, and
    each restarts its clock and sequence numbers, so ordering contracts
    hold per instance, not per name.
    """
    head = {"track", "tid", "seq", "t_ns", "type"}
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            fail(errors, f"line {lineno}: not valid JSON: {e}")
            continue
        missing = head - ev.keys()
        if missing:
            fail(errors, f"line {lineno}: missing {sorted(missing)}")
        elif fields_ok(lineno, ev["type"], ev.keys() - head, errors):
            events.append((ev["track"], ev["tid"], ev["seq"], ev["t_ns"], ev["type"], ev))
    return events


def parse_chrome(text, errors):
    """Yield (track, instance, None, t_ns, type, args) from a chrome dump.

    The writer emits ``[`` then one object per line, each ending in a
    comma, and never closes the array — the format about:tracing
    documents as acceptable.  Track names come from ``thread_name``
    metadata records, each written before its track's first event;
    timestamps are in microseconds.  An instant is named by its event
    type, a ``B``/``E`` pair is a collective span named by its algorithm,
    and ``args`` holds the JSONL fields.
    """
    names = {}  # tid -> track name
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line in ("", "[", "]"):
            continue
        try:
            ev = json.loads(line.rstrip(","))
        except json.JSONDecodeError as e:
            fail(errors, f"line {lineno}: not valid JSON: {e}")
            continue
        if ev.get("ph") == "M":
            if ev.get("name") == "thread_name":
                names[ev.get("tid")] = ev.get("args", {}).get("name", "")
            continue
        missing = {"tid", "ts", "ph", "name", "args"} - ev.keys()
        if missing:
            fail(errors, f"line {lineno}: event missing {sorted(missing)}")
            continue
        kind = {"B": "coll_begin", "E": "coll_end"}.get(ev["ph"], ev["name"])
        if fields_ok(lineno, kind, ev["args"].keys(), errors):
            name = names.get(ev["tid"], f"tid{ev['tid']}")
            events.append((name, ev["tid"], None, ev["ts"] * 1000.0, kind, ev["args"]))
    return events


def check(events, errors):
    # Sequence numbers: strictly increasing per track instance (JSONL only).
    last_seq = {}
    for name, tid, seq, _, _, _ in events:
        if seq is None:
            continue
        if tid in last_seq and seq <= last_seq[tid]:
            fail(errors, f"track {name}#{tid}: seq {seq} after {last_seq[tid]}")
        last_seq[tid] = seq

    # Timestamps: monotone per track instance — per (instance, rank) on DES
    # tracks, which serialize one evaluator's independent per-rank clocks.
    last_t = {}
    for name, tid, _, t_ns, kind, ev in events:
        key = (tid, ev["rank"]) if kind == "des" else (tid,)
        if key in last_t and t_ns < last_t[key]:
            fail(
                errors,
                f"track {name}#{'/'.join(map(str, key))}: time went backwards "
                f"({t_ns} after {last_t[key]})",
            )
        last_t[key] = t_ns

    # Receive/send pairing (aggregate multiset containment per channel).
    # Ranks talk across track instances within one universe, and universes
    # run one after another in a process, so the aggregate over name-level
    # ranks is the honest containment check either way.  A reborn
    # incarnation's track is named ``rankN.I`` — its traffic aggregates
    # under world rank N, which is how receivers record the source.
    sent = collections.Counter()
    received = collections.Counter()
    for name, _, _, _, kind, ev in events:
        base = name.removeprefix("rank").split(".")[0]
        if not name.startswith("rank") or not base.isdigit():
            continue
        me = int(base)
        if kind == "send" and ev["kind"] != "osc":
            sent[(me, ev["dst"], ev["bytes"], ev["comm"], ev["tag"])] += 1
        elif kind == "recv":
            received[(ev["src"], me, ev["bytes"], ev["comm"], ev["tag"])] += 1
    for chan, n in received.items():
        if sent[chan] < n:
            src, dst, nbytes, comm, tag = chan
            fail(
                errors,
                f"rank{dst} received {n} message(s) of {nbytes}B "
                f"(comm={comm}, tag={tag}) from rank{src}, which only sent "
                f"{sent[chan]}",
            )
    return sum(received.values())


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        text = f.read()
    errors = []
    if text.lstrip().startswith("["):
        events = parse_chrome(text, errors)
        fmt = "chrome"
    else:
        events = parse_jsonl(text, errors)
        fmt = "jsonl"
    if not events and not errors:
        fail(errors, "trace contains no events")
    paired = check(events, errors)
    if errors:
        for e in errors:
            print(f"  BAD  {e}", file=sys.stderr)
        print(f"check_trace: {len(errors)} problem(s) in {sys.argv[1]}", file=sys.stderr)
        return 1
    tracks = len({tid for _, tid, *_ in events})
    print(
        f"check_trace: {sys.argv[1]} ok ({fmt}, {len(events)} events, "
        f"{tracks} track instances, {paired} receives paired)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
