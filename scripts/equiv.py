#!/usr/bin/env python3
"""Bitwise-equivalence checks between benchmark runs.

Every refactor and every observer (SIMD dispatch, thread count, the live
server, predictive-quality telemetry) must leave inference outputs bit for
bit unchanged. Each subcommand compares the artifacts of two or more runs
and exits nonzero, naming the first differences, when they disagree.

Usage:
  scripts/equiv.py simd-matrix RUN.jsonl RUN.jsonl RUN.jsonl RUN.jsonl
      fig1 per-step losses across the {TYXE_SIMD} x {threads} matrix.
  scripts/equiv.py live OFF.jsonl ON.jsonl
      fig1 per-step losses with the live server off vs scraped on.
  scripts/equiv.py pq OFF.jsonl ON.jsonl
      fig2 per-step losses and strategy results with --pq off vs on.
  scripts/equiv.py pq-threads T1.json T4.json
      fig2 pq snapshot sections at 1 vs 4 threads.
  scripts/equiv.py events A.jsonl B.jsonl
      Every event of two JSONL streams, minus wall-time fields ("seconds"
      and "*_seconds").
  scripts/equiv.py same A B [--ignore REGEX ...]
      Two files byte for byte; with --ignore, line for line after dropping
      the lines that match any REGEX (e.g. a printed wall time).
"""
import argparse
import json
import re
import sys


def fields_of(line):
    e = json.loads(line)
    return e.get("fields", e)


def read_fields(path):
    with open(path, encoding="utf-8") as f:
        return [fields_of(line) for line in f]


def losses(path):
    return [f["loss"] for f in read_fields(path) if "loss" in f]


def first_diffs(a, b):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y][:5]


def simd_matrix(paths):
    assert len(paths) == 4, f"expected 4 runs, got {paths}"
    ref_path, *rest = paths
    ref = losses(ref_path)
    assert ref, f"{ref_path}: no loss events"
    for p in rest:
        got = losses(p)
        if got != ref:
            raise SystemExit(
                f"{p} diverges from {ref_path}: "
                f"{len(got)} vs {len(ref)} events, "
                f"first differing indices {first_diffs(ref, got)}")
    print(f"{len(ref)} loss values bitwise identical "
          f"across {len(paths)} runs")


def live(off_path, on_path):
    off, on = losses(off_path), losses(on_path)
    assert off, "server-off run produced no loss events"
    if off != on:
        raise SystemExit(
            f"server-on run diverges from server-off: {len(on)} vs "
            f"{len(off)} events, first differing indices "
            f"{first_diffs(off, on)}")
    print(f"{len(off)} loss values bitwise identical "
          f"(server-off vs scraped server-on)")


def pq_stream(path):
    losses_, results = [], []
    for fields in read_fields(path):
        if "loss" in fields:
            losses_.append((fields.get("strategy"), fields["loss"]))
        if fields.get("event") == "strategy_result":
            results.append(tuple(
                fields.get(k) for k in
                ("strategy", "nll", "accuracy", "ece", "ood_auroc")))
    return losses_, results


def pq(off_path, on_path):
    (off_l, off_r), (on_l, on_r) = pq_stream(off_path), pq_stream(on_path)
    assert off_l and off_r, "pq-off run produced no loss/result events"
    if off_l != on_l:
        raise SystemExit(
            f"--pq run diverges on losses: {len(on_l)} vs "
            f"{len(off_l)} events, first differing indices "
            f"{first_diffs(off_l, on_l)}")
    if off_r != on_r:
        raise SystemExit(
            f"--pq run diverges on strategy results:\n"
            f"  off: {off_r}\n  on:  {on_r}")
    print(f"{len(off_l)} losses and {len(off_r)} strategy results "
          f"bitwise identical (pq-off vs --pq)")


def pq_threads(t1_path, t4_path):
    docs = []
    for path in (t1_path, t4_path):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f).get("pq"))
    assert docs[0] is not None, "t1 snapshot has no pq section"
    assert docs[1] is not None, "t4 snapshot has no pq section"
    if docs[0] != docs[1]:
        keys = sorted(set(docs[0].get("streams", {}))
                      | set(docs[1].get("streams", {})))
        diff = [k for k in keys
                if docs[0]["streams"].get(k) != docs[1]["streams"].get(k)]
        raise SystemExit(
            f"pq sections differ between TYXE_NUM_THREADS=1 and =4; "
            f"differing streams: {diff}")
    n = len(docs[0].get("streams", {}))
    print(f"pq sections identical across thread counts ({n} streams)")


def untimed(path):
    return [{k: v for k, v in f.items()
             if k != "seconds" and not k.endswith("_seconds")}
            for f in read_fields(path)]


def events(a_path, b_path):
    a, b = untimed(a_path), untimed(b_path)
    assert a, f"{a_path}: no events"
    if a != b:
        raise SystemExit(
            f"{b_path} diverges from {a_path}: {len(b)} vs {len(a)} events, "
            f"first differing indices {first_diffs(a, b)}")
    print(f"{len(a)} events identical apart from wall time")


def same(a_path, b_path, ignore):
    if not ignore:
        with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            raise SystemExit(f"{b_path} differs from {a_path} at byte {at} "
                             f"({len(b)} vs {len(a)} bytes)")
        print(f"{len(a)} bytes identical")
        return
    pats = [re.compile(p) for p in ignore]

    def kept(path):
        with open(path, encoding="utf-8") as f:
            return [line for line in f
                    if not any(p.search(line) for p in pats)]

    a, b = kept(a_path), kept(b_path)
    if a != b:
        raise SystemExit(
            f"{b_path} differs from {a_path}: {len(b)} vs {len(a)} kept "
            f"lines, first differing indices {first_diffs(a, b)}")
    print(f"{len(a)} lines identical ({len(ignore)} ignore patterns)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="check", required=True)
    sub.add_parser("simd-matrix").add_argument("runs", nargs="+")
    for name in ("live", "pq", "pq-threads", "events"):
        p = sub.add_parser(name)
        p.add_argument("a")
        p.add_argument("b")
    p = sub.add_parser("same")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--ignore", action="append", default=[])
    args = ap.parse_args()
    if args.check == "simd-matrix":
        simd_matrix(args.runs)
    elif args.check == "same":
        same(args.a, args.b, args.ignore)
    else:
        {"live": live, "pq": pq, "pq-threads": pq_threads,
         "events": events}[args.check](args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
