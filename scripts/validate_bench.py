#!/usr/bin/env python3
"""Validate BENCH_*.json snapshots, tx.trace.v1 Chrome-trace exports,
tx.diag.v1 inference-health snapshots, tx.manifest.v1 run manifests, and
tx.ckpt.v1 checkpoint bundles.

Usage: scripts/validate_bench.py [--trace | --diag | --ckpt | --prof | --pq | --manifest] FILE ...

Five file kinds are understood; all but checkpoints are JSON and
auto-detected by shape, checkpoints are text-framed binary selected with
--ckpt:

* Metric snapshots (tx.obs.v1, written by EventSink::write_snapshot): checks
  the structural contract documented in docs/observability.md — top-level
  schema/bench strings, integer counters, numeric gauges, histogram summaries
  with the required numeric fields, p50 <= p90 <= p99, and a well-formed
  bucket list (finite `le` strictly ascending, "inf" only on the last
  bucket, non-negative integer counts), and numeric series arrays.
* Chrome traces (tx.trace.v1, written by obs::write_trace): checks the file
  is well-formed JSON with a traceEvents list, that every event carries
  ph/pid/tid (and a numeric ts for non-metadata phases), that timestamps are
  monotone non-decreasing per (pid, tid) track, and that duration events are
  balanced — every E closes the matching open B on its track and no B is
  left open at end of file.
* Diag snapshots (tx.diag.v1, written by obs::diag::write_snapshot): checks
  the svi/mcmc/events sections, that the "steps" record indices are strictly
  increasing, and that every per-site / per-param statistic is a finite
  number (the writer's contract is to omit undefined fields, never to emit
  NaN/Infinity/null).
* Checkpoint bundles (tx.ckpt.v1, written by resil::Bundle::write_file,
  --ckpt only): re-verifies the FNV-1a 64 checksum footer, the header
  section count, per-section byte framing, and that section names are
  sorted and unique — i.e. the file would load, without needing the C++
  loader.

Metric snapshots additionally have their `resil.*` counters and gauges
checked against the schema documented in docs/robustness.md: unknown
resil names, negative counters, or non-finite gauges are violations.

Snapshots may embed an optional "prof" section (schema tx.prof.v1, written
when the run profiled with --prof): per-kernel calls/flops/bytes plus derived
gflops/gbps/intensity, and the allocator-churn table (per-span allocs, bytes,
size-class histogram, coverage vs mem.total_allocated_bytes). The section is
validated whenever present; `--prof` additionally *requires* it.

Snapshots may embed a "pq" section (schema tx.pq.v1, written when the run
streamed predictive quality with --pq): per-stream calibration accumulators
(reliability bins, streaming NLL/Brier/accuracy/ECE), the predictive-entropy
decomposition (aleatoric + epistemic must reconstruct the predictive mean to
a ulp-scaled tolerance), max-probability score histograms whose counts must
sum to the stream's example totals, and binned OOD AUROCs in [0, 1]. The
section is validated whenever present; `--pq` additionally *requires* it.

Snapshots may also embed a "manifest" section (schema tx.manifest.v1,
obs/manifest.h): run provenance — git sha, build type, SIMD dispatch level,
arena state, thread count, seed, and the full TYXE_* environment table.
Validated whenever present; the same document served standalone by the live
server's /manifest endpoint is auto-detected by its schema string (or
required with `--manifest`).

`--trace` / `--diag` / `--prof` / `--manifest` additionally *require* each
named file to be of that kind, so a glob that accidentally matches the wrong
file fails loudly instead of passing under the wrong checker. Exits non-zero
with one line per violation, so CI can gate on it.
"""
import json
import sys

REQUIRED_TOP = ["bench", "schema", "counters", "gauges", "histograms", "series"]
REQUIRED_HIST = ["count", "sum", "mean", "min", "max", "p50", "p90", "p99", "buckets"]

# The resil.* metric schema (docs/robustness.md). Counters and gauges under
# the resil. prefix must come from these sets; anything else is a typo or an
# undocumented metric and fails validation.
RESIL_COUNTERS = {
    "resil.svi.resumes",
    "resil.svi.rollbacks",
    "resil.svi.retries_exhausted",
    "resil.svi.budget_stops",
    "resil.mcmc.resumes",
    "resil.mcmc.restarts",
    "resil.ckpt.snapshots",
    "resil.ckpt.writes",
    "resil.ckpt.write_failures",
}
RESIL_GAUGES = {
    "resil.svi.lr",
    "resil.svi.consecutive_rollbacks",
    "resil.svi.checkpoint_step",
    "resil.svi.rollbacks_total",
    "resil.mcmc.restarts_total",
}
RESIL_GAUGE_PREFIXES = ("resil.mcmc.step_size.chain",)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_snapshot(path, doc):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    for key in REQUIRED_TOP:
        if key not in doc:
            err(f"missing top-level key '{key}'")
    if errors:
        return errors

    if doc["schema"] != "tx.obs.v1":
        err(f"schema is {doc['schema']!r}, expected 'tx.obs.v1'")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        err("'bench' must be a non-empty string")

    if not isinstance(doc["counters"], dict):
        err("'counters' must be an object")
    else:
        for name, v in doc["counters"].items():
            if not isinstance(v, int) or isinstance(v, bool):
                err(f"counter '{name}' is not an integer: {v!r}")
            elif name.startswith("resil."):
                if name not in RESIL_COUNTERS:
                    err(f"counter '{name}' is not a documented resil.* counter")
                elif v < 0:
                    err(f"resil counter '{name}' is negative: {v}")

    if not isinstance(doc["gauges"], dict):
        err("'gauges' must be an object")
    else:
        for name, v in doc["gauges"].items():
            if not is_number(v):
                err(f"gauge '{name}' is not a number: {v!r}")
            elif name.startswith("resil."):
                if name not in RESIL_GAUGES and not any(
                    name.startswith(p) for p in RESIL_GAUGE_PREFIXES
                ):
                    err(f"gauge '{name}' is not a documented resil.* gauge")
                elif v != v or v in (float("inf"), float("-inf")):
                    err(f"resil gauge '{name}' is not finite: {v!r}")

    if not isinstance(doc["histograms"], dict):
        err("'histograms' must be an object")
    else:
        for name, h in doc["histograms"].items():
            if not isinstance(h, dict):
                err(f"histogram '{name}' is not an object")
                continue
            for field in REQUIRED_HIST:
                if field not in h:
                    err(f"histogram '{name}' missing field '{field}'")
            if not isinstance(h.get("count"), int):
                err(f"histogram '{name}' count is not an integer")
            for field in ("sum", "mean", "min", "max", "p50", "p90", "p99"):
                if field in h and not is_number(h[field]):
                    err(f"histogram '{name}' field '{field}' is not a number")
            quantiles = [h.get(q) for q in ("p50", "p90", "p99")]
            if all(is_number(q) for q in quantiles) and not (
                quantiles[0] <= quantiles[1] <= quantiles[2]
            ):
                err(f"histogram '{name}' quantiles not ordered "
                    f"(p50, p90, p99 = {quantiles})")
            # No sum(buckets) == count check: a live /snapshot reads the
            # cells with relaxed loads, so the two can disagree mid-record.
            buckets = h.get("buckets")
            if not isinstance(buckets, list):
                err(f"histogram '{name}' buckets is not a list")
            else:
                prev_le = None
                for i, b in enumerate(buckets):
                    if not isinstance(b, dict) or "le" not in b or "count" not in b:
                        err(f"histogram '{name}' bucket {i} malformed: {b!r}")
                        continue
                    le = b["le"]
                    if le == "inf":
                        if i != len(buckets) - 1:
                            err(f"histogram '{name}' bucket {i} 'le' is 'inf' "
                                "but is not the last bucket")
                    elif not is_number(le):
                        err(f"histogram '{name}' bucket {i} 'le' invalid: {le!r}")
                    else:
                        if prev_le is not None and le <= prev_le:
                            err(f"histogram '{name}' bucket {i} 'le' {le} does "
                                f"not ascend past {prev_le}")
                        prev_le = le
                    count = b["count"]
                    if not isinstance(count, int) or isinstance(count, bool):
                        err(f"histogram '{name}' bucket {i} 'count' not an integer")
                    elif count < 0:
                        err(f"histogram '{name}' bucket {i} 'count' is negative")

    if not isinstance(doc["series"], dict):
        err("'series' must be an object")
    else:
        for name, values in doc["series"].items():
            if not isinstance(values, list):
                err(f"series '{name}' is not a list")
            elif not all(is_number(v) for v in values):
                err(f"series '{name}' has non-numeric entries")

    if "prof" in doc:
        errors.extend(validate_prof_section(path, doc["prof"]))
    if "pq" in doc:
        errors.extend(validate_pq_section(path, doc["pq"]))
    if "manifest" in doc:
        errors.extend(validate_manifest(path, doc["manifest"]))

    return errors


def validate_manifest(path, m):
    """Validate a tx.manifest.v1 document (standalone or embedded)."""
    errors = []

    def err(msg):
        errors.append(f"{path}: manifest: {msg}")

    if not isinstance(m, dict):
        return [f"{path}: 'manifest' must be an object"]
    if m.get("schema") != "tx.manifest.v1":
        err(f"schema is {m.get('schema')!r}, expected 'tx.manifest.v1'")
    for key in ("git_sha", "build_type"):
        if not isinstance(m.get(key), str) or not m.get(key):
            err(f"'{key}' must be a non-empty string")
    # Provider fields are optional (a binary that does not link a provider
    # omits its fields) but typed when present.
    if "simd_level" in m and m["simd_level"] not in ("off", "scalar", "avx2", "neon"):
        err(f"'simd_level' invalid: {m['simd_level']!r}")
    for key in ("threads", "seed"):
        if key in m and (not isinstance(m[key], int) or isinstance(m[key], bool)):
            err(f"'{key}' must be an integer: {m[key]!r}")
    if "arena" in m and m["arena"] not in ("on", "off"):
        err(f"'arena' invalid: {m['arena']!r}")

    env = m.get("env")
    if not isinstance(env, dict) or not env:
        err("'env' must be a non-empty object")
    else:
        for name, e in env.items():
            if not name.startswith("TYXE_"):
                err(f"env var '{name}' does not start with TYXE_")
            if not isinstance(e, dict):
                err(f"env var '{name}' entry is not an object")
                continue
            if not isinstance(e.get("set"), bool):
                err(f"env var '{name}' field 'set' is not a bool")
            if e.get("set") and not isinstance(e.get("value"), str):
                err(f"env var '{name}' is set but 'value' is not a string")
            if not e.get("set") and e.get("value") is not None:
                err(f"env var '{name}' is unset but 'value' is not null")
            if not isinstance(e.get("default"), str):
                err(f"env var '{name}' field 'default' is not a string")

    unknown = m.get("unknown_env")
    if not isinstance(unknown, list) or not all(
        isinstance(u, str) for u in unknown
    ):
        err("'unknown_env' must be a list of strings")

    return errors


PROF_KERNEL_INTS = ("calls", "flops", "bytes")
PROF_KERNEL_FLOATS = ("seconds", "gflops", "gbps", "intensity")
PROF_SPAN_INTS = ("allocs", "bytes")


def validate_prof_section(path, prof):
    errors = []

    def err(msg):
        errors.append(f"{path}: prof: {msg}")

    if not isinstance(prof, dict):
        return [f"{path}: 'prof' must be an object"]
    if prof.get("schema") != "tx.prof.v1":
        err(f"schema is {prof.get('schema')!r}, expected 'tx.prof.v1'")
    if not is_number(prof.get("seconds_enabled")):
        err("'seconds_enabled' is not a number")
    if not isinstance(prof.get("steps"), int):
        err("'steps' is not an integer")

    kernels = prof.get("kernels")
    if not isinstance(kernels, dict):
        err("'kernels' must be an object")
    else:
        for name, k in kernels.items():
            if not isinstance(k, dict):
                err(f"kernel '{name}' is not an object")
                continue
            for field in PROF_KERNEL_INTS:
                v = k.get(field)
                if not isinstance(v, int) or isinstance(v, bool):
                    err(f"kernel '{name}' field '{field}' is not an integer: {v!r}")
                elif v < 0:
                    err(f"kernel '{name}' field '{field}' is negative: {v}")
            for field in PROF_KERNEL_FLOATS:
                if not is_number(k.get(field)):
                    err(f"kernel '{name}' field '{field}' is not a number")
            if isinstance(k.get("calls"), int) and k["calls"] == 0:
                err(f"kernel '{name}' has zero calls but was recorded")

    churn = prof.get("churn")
    if not isinstance(churn, dict):
        err("'churn' must be an object")
        return errors
    for field in ("attributed_allocs", "attributed_bytes", "window_allocated_bytes"):
        v = churn.get(field)
        if not isinstance(v, int) or isinstance(v, bool):
            err(f"churn field '{field}' is not an integer: {v!r}")
    if not is_number(churn.get("coverage")):
        err("churn field 'coverage' is not a number")
    spans = churn.get("spans")
    if not isinstance(spans, dict):
        err("churn 'spans' must be an object")
        return errors
    total_allocs = total_bytes = 0
    for span, s in spans.items():
        if not isinstance(s, dict):
            err(f"churn span '{span}' is not an object")
            continue
        for field in PROF_SPAN_INTS:
            v = s.get(field)
            if not isinstance(v, int) or isinstance(v, bool):
                err(f"churn span '{span}' field '{field}' is not an integer: {v!r}")
        if not is_number(s.get("bytes_per_step")):
            err(f"churn span '{span}' field 'bytes_per_step' is not a number")
        classes = s.get("size_classes")
        if not isinstance(classes, list):
            err(f"churn span '{span}' size_classes is not a list")
        else:
            class_total = 0
            for i, b in enumerate(classes):
                if not isinstance(b, dict) or "le" not in b or "count" not in b:
                    err(f"churn span '{span}' size class {i} malformed: {b!r}")
                    continue
                if not (is_number(b["le"]) or b["le"] == "inf"):
                    err(f"churn span '{span}' size class {i} 'le' invalid: {b['le']!r}")
                if not isinstance(b["count"], int):
                    err(f"churn span '{span}' size class {i} 'count' not an integer")
                else:
                    class_total += b["count"]
            if isinstance(s.get("allocs"), int) and class_total != s["allocs"]:
                err(
                    f"churn span '{span}' size-class counts sum to "
                    f"{class_total}, expected allocs = {s['allocs']}"
                )
        if isinstance(s.get("allocs"), int):
            total_allocs += s["allocs"]
        if isinstance(s.get("bytes"), int):
            total_bytes += s["bytes"]
    if (
        isinstance(churn.get("attributed_allocs"), int)
        and total_allocs != churn["attributed_allocs"]
    ):
        err(
            f"span alloc counts sum to {total_allocs}, expected "
            f"attributed_allocs = {churn['attributed_allocs']}"
        )
    if (
        isinstance(churn.get("attributed_bytes"), int)
        and total_bytes != churn["attributed_bytes"]
    ):
        err(
            f"span byte counts sum to {total_bytes}, expected "
            f"attributed_bytes = {churn['attributed_bytes']}"
        )
    return errors


PQ_STREAM_INTS = ("examples", "labeled", "correct")

# 64-bit double epsilon; the entropy decomposition identity holds to the
# rounding of one division, so a few ulps of the predictive mean.
_EPS = 2.220446049250313e-16


def validate_pq_section(path, pq):
    errors = []

    def err(msg):
        errors.append(f"{path}: pq: {msg}")

    if not isinstance(pq, dict):
        return [f"{path}: 'pq' must be an object"]
    if pq.get("schema") != "tx.pq.v1":
        err(f"schema is {pq.get('schema')!r}, expected 'tx.pq.v1'")
    reliability_bins = pq.get("reliability_bins")
    score_bins = pq.get("score_bins")
    for key, v in (("reliability_bins", reliability_bins), ("score_bins", score_bins)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            err(f"'{key}' is not a positive integer: {v!r}")

    streams = pq.get("streams")
    if not isinstance(streams, dict):
        err("'streams' must be an object")
        streams = {}
    for name, s in streams.items():
        if not isinstance(s, dict):
            err(f"stream '{name}' is not an object")
            continue
        for field in PQ_STREAM_INTS:
            v = s.get(field)
            if not isinstance(v, int) or isinstance(v, bool):
                err(f"stream '{name}' field '{field}' is not an integer: {v!r}")
            elif v < 0:
                err(f"stream '{name}' field '{field}' is negative: {v}")
        labeled = s.get("labeled")
        examples = s.get("examples")
        if isinstance(s.get("correct"), int) and isinstance(labeled, int):
            if s["correct"] > labeled:
                err(f"stream '{name}' correct {s['correct']} > labeled {labeled}")

        # The reliability bins are the streaming calibration accumulator:
        # their counts must account for every labeled example exactly.
        bins = s.get("reliability")
        if not isinstance(bins, list):
            err(f"stream '{name}' 'reliability' is not a list")
        else:
            if isinstance(reliability_bins, int) and len(bins) != reliability_bins:
                err(
                    f"stream '{name}' has {len(bins)} reliability bins, "
                    f"expected {reliability_bins}"
                )
            count_total = 0
            for i, b in enumerate(bins):
                if not isinstance(b, dict) or "le" not in b or "count" not in b:
                    err(f"stream '{name}' reliability bin {i} malformed: {b!r}")
                    continue
                if not isinstance(b["count"], int) or b["count"] < 0:
                    err(f"stream '{name}' reliability bin {i} count invalid: {b['count']!r}")
                else:
                    count_total += b["count"]
                for field in ("le", "confidence_sum", "accuracy_sum"):
                    if not is_number(b.get(field)):
                        err(f"stream '{name}' reliability bin {i} '{field}' is not a number")
            if isinstance(labeled, int) and count_total != labeled:
                err(
                    f"stream '{name}' reliability counts sum to {count_total}, "
                    f"expected labeled = {labeled}"
                )

        # Score histogram: one entry per prediction seen on the stream.
        scores = s.get("scores")
        if not isinstance(scores, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in scores
        ):
            err(f"stream '{name}' 'scores' is not a list of non-negative integers")
        else:
            if isinstance(score_bins, int) and len(scores) != score_bins:
                err(
                    f"stream '{name}' has {len(scores)} score bins, "
                    f"expected {score_bins}"
                )
            if isinstance(examples, int) and sum(scores) != examples:
                err(
                    f"stream '{name}' score counts sum to {sum(scores)}, "
                    f"expected examples = {examples}"
                )

        if isinstance(examples, int) and examples > 0:
            if not is_number(s.get("confidence_mean")):
                err(f"stream '{name}' 'confidence_mean' is not a number")
            entropy = s.get("entropy")
            if not isinstance(entropy, dict):
                err(f"stream '{name}' 'entropy' is not an object")
            else:
                for field in (
                    "predictive_sum",
                    "aleatoric_sum",
                    "predictive_mean",
                    "aleatoric_mean",
                    "epistemic_mean",
                ):
                    if not is_number(entropy.get(field)):
                        err(f"stream '{name}' entropy '{field}' is not a number")
                if all(
                    is_number(entropy.get(f))
                    for f in ("predictive_mean", "aleatoric_mean", "epistemic_mean")
                ):
                    pred = entropy["predictive_mean"]
                    recon = entropy["aleatoric_mean"] + entropy["epistemic_mean"]
                    tol = 4.0 * _EPS * max(1.0, abs(pred))
                    if abs(recon - pred) > tol:
                        err(
                            f"stream '{name}' entropy decomposition broken: "
                            f"aleatoric + epistemic = {recon!r} vs "
                            f"predictive = {pred!r}"
                        )

        if isinstance(labeled, int) and labeled > 0:
            for field in ("accuracy", "nll", "brier", "ece"):
                if not is_number(s.get(field)):
                    err(f"stream '{name}' '{field}' is not a number")
            if is_number(s.get("accuracy")) and isinstance(s.get("correct"), int):
                if s["accuracy"] != s["correct"] / labeled:
                    err(
                        f"stream '{name}' accuracy {s['accuracy']!r} != "
                        f"correct/labeled = {s['correct'] / labeled!r}"
                    )
            if is_number(s.get("ece")) and not 0.0 <= s["ece"] <= 1.0:
                err(f"stream '{name}' ece out of [0, 1]: {s['ece']!r}")

        if "mc_samples" in s:
            for field in ("mc_samples", "sample_batches"):
                v = s.get(field)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    err(f"stream '{name}' '{field}' is not a non-negative integer: {v!r}")
            v = s.get("across_sample_variance_mean")
            if not is_number(v) or v < 0:
                err(f"stream '{name}' 'across_sample_variance_mean' invalid: {v!r}")

        # Guard degradation marker: emitted only when at least one batch was
        # budget-truncated, so a present key must be a positive integer.
        if "degraded_batches" in s:
            v = s["degraded_batches"]
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                err(f"stream '{name}' 'degraded_batches' is not a positive integer: {v!r}")

    ood = pq.get("ood")
    if not isinstance(ood, dict):
        err("'ood' must be an object")
    else:
        for prefix, v in ood.items():
            if not is_number(v) or not 0.0 <= v <= 1.0:
                err(f"ood '{prefix}' AUROC out of [0, 1]: {v!r}")
            if f"{prefix}/test" not in streams or f"{prefix}/ood" not in streams:
                err(f"ood '{prefix}' has no matching '/test' + '/ood' stream pair")

    return errors


def validate_trace(path, doc):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: 'traceEvents' must be a list"]
    other = doc.get("otherData", {})
    if isinstance(other, dict) and "schema" in other and other["schema"] != "tx.trace.v1":
        err(f"otherData.schema is {other['schema']!r}, expected 'tx.trace.v1'")

    last_ts = {}  # (pid, tid) -> last seen ts
    open_spans = {}  # (pid, tid) -> stack of open B-event names
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            err(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or len(ph) != 1:
            err(f"event {i} has invalid ph: {ph!r}")
            continue
        if "pid" not in ev or "tid" not in ev:
            err(f"event {i} (ph={ph}) missing pid/tid")
            continue
        if not isinstance(ev.get("name"), str):
            err(f"event {i} (ph={ph}) missing string name")
            continue
        track = (ev["pid"], ev["tid"])
        if ph == "M":  # metadata carries no timestamp
            continue
        ts = ev.get("ts")
        if not is_number(ts):
            err(f"event {i} ({ev['name']!r}) has non-numeric ts: {ts!r}")
            continue
        if track in last_ts and ts < last_ts[track]:
            err(
                f"event {i} ({ev['name']!r}) ts {ts} goes backwards on "
                f"track {track} (previous {last_ts[track]})"
            )
        last_ts[track] = ts
        if ph == "B":
            open_spans.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = open_spans.get(track, [])
            if not stack:
                err(f"event {i}: E {ev['name']!r} on track {track} with no open B")
            else:
                if stack[-1] != ev["name"]:
                    err(
                        f"event {i}: E {ev['name']!r} does not match open B "
                        f"{stack[-1]!r} on track {track}"
                    )
                stack.pop()
    for track, stack in sorted(open_spans.items()):
        if stack:
            err(f"track {track} ends with unclosed B events: {stack}")

    return errors


DIAG_SVI_SITE_INTS = ("count", "numel", "nonfinite", "kl_count")
DIAG_PARAM_INTS = ("steps", "nonfinite")
DIAG_MCMC_SITE_INTS = ("draws", "transitions", "moved", "divergence_blame")


def validate_diag(path, doc):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    if doc.get("schema") != "tx.diag.v1":
        err(f"schema is {doc.get('schema')!r}, expected 'tx.diag.v1'")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        err("'bench' must be a non-empty string")

    steps = doc.get("steps")
    if not isinstance(steps, list):
        err("'steps' must be a list")
    else:
        for i, s in enumerate(steps):
            if not isinstance(s, int) or isinstance(s, bool):
                err(f"steps[{i}] is not an integer: {s!r}")
            elif i > 0 and s <= steps[i - 1]:
                err(f"steps[{i}] = {s} not strictly increasing (previous {steps[i - 1]})")

    def check_stats(section, name, stats, int_fields):
        if not isinstance(stats, dict):
            err(f"{section} '{name}' is not an object")
            return
        for field, v in stats.items():
            if not is_number(v):
                err(f"{section} '{name}' field '{field}' is not a number: {v!r}")
            elif v != v or v in (float("inf"), float("-inf")):
                err(f"{section} '{name}' field '{field}' is not finite: {v!r}")
            elif field in int_fields and not isinstance(v, int):
                err(f"{section} '{name}' field '{field}' is not an integer: {v!r}")

    svi = doc.get("svi")
    if not isinstance(svi, dict):
        err("'svi' must be an object")
    else:
        if not isinstance(svi.get("steps"), int):
            err("svi.steps is not an integer")
        for key in ("elbo_mean", "elbo_std", "elbo_last"):
            if key in svi and not is_number(svi[key]):
                err(f"svi.{key} is not a number: {svi[key]!r}")
        for name, stats in (svi.get("sites") or {}).items():
            check_stats("svi site", name, stats, DIAG_SVI_SITE_INTS)
        for name, stats in (svi.get("params") or {}).items():
            check_stats("svi param", name, stats, DIAG_PARAM_INTS)

    mcmc = doc.get("mcmc")
    if not isinstance(mcmc, dict):
        err("'mcmc' must be an object")
    else:
        for key in ("chains", "transitions", "divergences"):
            if not isinstance(mcmc.get(key), int):
                err(f"mcmc.{key} is not an integer")
        if "accept_prob_mean" in mcmc and not is_number(mcmc["accept_prob_mean"]):
            err(f"mcmc.accept_prob_mean is not a number: {mcmc['accept_prob_mean']!r}")
        for name, stats in (mcmc.get("sites") or {}).items():
            check_stats("mcmc site", name, stats, DIAG_MCMC_SITE_INTS)

    events = doc.get("events")
    if not isinstance(events, dict):
        err("'events' must be an object")
    else:
        for key in ("nan_trips", "forensic_dumps", "records"):
            if not isinstance(events.get(key), int):
                err(f"events.{key} is not an integer")

    return errors


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def validate_ckpt(path):
    """Re-implements the tx.ckpt.v1 loader's integrity checks in Python."""
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        return [f"{path}: unreadable ({e})"]

    footer_tag = b"@checksum "
    footer_size = len(footer_tag) + 17  # tag + 16 hex digits + newline
    if (
        len(data) <= footer_size
        or not data.endswith(b"\n")
        or data[-footer_size : -footer_size + len(footer_tag)] != footer_tag
    ):
        return [f"{path}: missing or truncated checksum footer"]
    hex_digits = data[-17:-1]
    try:
        want = int(hex_digits, 16)
    except ValueError:
        return [f"{path}: malformed checksum footer {hex_digits!r}"]
    body = data[:-footer_size]
    got = fnv1a64(body)
    if got != want:
        err(f"checksum mismatch: footer {want:016x}, body hashes to {got:016x}")

    nl = body.find(b"\n")
    if nl < 0:
        return errors + [f"{path}: truncated header"]
    header = body[:nl].split(b" ")
    if len(header) != 2 or header[0] != b"tx.ckpt.v1":
        return errors + [f"{path}: bad header {body[:nl]!r}"]
    try:
        count = int(header[1])
    except ValueError:
        return errors + [f"{path}: bad section count {header[1]!r}"]

    pos = nl + 1
    names = []
    for i in range(count):
        nl = body.find(b"\n", pos)
        if nl < 0:
            return errors + [f"{path}: truncated section header {i}"]
        parts = body[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != b"@" or not parts[1]:
            return errors + [f"{path}: bad section header {body[pos:nl]!r}"]
        try:
            nbytes = int(parts[2])
        except ValueError:
            return errors + [f"{path}: bad section size {parts[2]!r}"]
        pos = nl + 1
        if pos + nbytes >= len(body) or body[pos + nbytes] != ord("\n"):
            return errors + [f"{path}: truncated section {parts[1].decode()!r}"]
        names.append(parts[1].decode())
        pos += nbytes + 1
    if pos != len(body):
        err(f"{len(body) - pos} trailing bytes after the last section")
    if names != sorted(names):
        err(f"section names not sorted: {names}")
    if len(set(names)) != len(names):
        err(f"duplicate section names: {names}")
    return errors


def validate(path, require_trace=False, require_diag=False, require_prof=False,
             require_pq=False, require_manifest=False):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"{path}: unreadable or invalid JSON ({e})"]

    if not isinstance(doc, dict):
        return None, [f"{path}: top level is not an object"]
    if doc.get("schema") == "tx.manifest.v1":
        return "tx.manifest.v1", validate_manifest(path, doc)
    if require_manifest:
        return None, [f"{path}: expected a run manifest (schema != 'tx.manifest.v1')"]
    if doc.get("schema") == "tx.diag.v1":
        return "tx.diag.v1", validate_diag(path, doc)
    if require_diag:
        return None, [f"{path}: expected a diag snapshot (schema != 'tx.diag.v1')"]
    if "traceEvents" in doc:
        return "tx.trace.v1", validate_trace(path, doc)
    if require_trace:
        return None, [f"{path}: expected a Chrome trace (no 'traceEvents' key)"]
    if require_prof and "prof" not in doc:
        return None, [f"{path}: expected a profiled snapshot (no 'prof' section)"]
    if require_pq and "pq" not in doc:
        return None, [f"{path}: expected a pq-streamed snapshot (no 'pq' section)"]
    kind = "tx.obs.v1"
    if "prof" in doc:
        kind += "+prof"
    if "pq" in doc:
        kind += "+pq"
    return kind, validate_snapshot(path, doc)


def main(argv):
    args = argv[1:]
    require_trace = False
    require_diag = False
    require_ckpt = False
    require_prof = False
    require_pq = False
    require_manifest = False
    if args and args[0] == "--trace":
        require_trace = True
        args = args[1:]
    elif args and args[0] == "--diag":
        require_diag = True
        args = args[1:]
    elif args and args[0] == "--ckpt":
        require_ckpt = True
        args = args[1:]
    elif args and args[0] == "--prof":
        require_prof = True
        args = args[1:]
    elif args and args[0] == "--pq":
        require_pq = True
        args = args[1:]
    elif args and args[0] == "--manifest":
        require_manifest = True
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in args:
        if require_ckpt:
            kind, errs = "tx.ckpt.v1", validate_ckpt(path)
        else:
            kind, errs = validate(path, require_trace=require_trace,
                                  require_diag=require_diag,
                                  require_prof=require_prof,
                                  require_pq=require_pq,
                                  require_manifest=require_manifest)
        if errs:
            all_errors.extend(errs)
        else:
            print(f"{path}: OK ({kind})")
    for e in all_errors:
        print(e, file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
