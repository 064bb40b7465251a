#!/usr/bin/env python3
"""Validate a pasim SweepSpec document (DESIGN.md §13) from first principles.

Independent re-implementation of the schema rules enforced by
SweepSpec::from_json, so C++-side bugs cannot self-certify: required
version in {1, 2}, no unknown keys at any nesting level, strict types,
and the same value ranges (positive axes, probabilities in [0, 1],
verify_replay requires use_cache, cache_cap_bytes requires cache_dir).

Schema v2 (DESIGN.md §14) adds the `iterations` override and the
sampling options (sampling, sample_period, warmup_iters,
verify_sampling) with their cross-rules: verify_sampling requires
sampling, and sampling is incompatible with verify_replay. The removed
`checkpoints` option is still accepted as false, because documents
written before its removal carry it; true fails. A v1 document naming
any v2 field is mislabeled, not forward-compatible, and fails.

Usage: check_spec_schema.py <spec.json> [<spec.json> ...]
"""
import json
import sys

KERNELS = {"EP", "FT", "LU", "CG", "MG"}
SCALES = {"paper", "small"}

TOP_KEYS = {"version", "kernel", "scale", "nodes", "freqs_mhz",
            "comm_dvfs_mhz", "options", "fault"}
OPTION_KEYS = {"jobs", "cache_dir", "use_cache", "run_retries",
               "verify_replay", "journal_path", "resume", "isolate",
               "isolate_timeout_s", "isolate_retries", "cache_cap_bytes"}
TOP_KEYS_V2 = TOP_KEYS | {"iterations"}
OPTION_KEYS_V2 = OPTION_KEYS | {"sampling", "sample_period", "warmup_iters",
                                "verify_sampling", "checkpoints"}
FAULT_KEYS = {"seed", "straggler_fraction", "straggler_slowdown",
              "dvfs_jitter_s", "message_delay_prob", "message_delay_s",
              "message_drop_prob", "max_send_attempts", "retry_backoff_s",
              "node_failure_prob", "node_failure_window_s"}


class SpecError(Exception):
    pass


def fail(field, msg):
    raise SpecError(f"{field}: {msg}")


def is_int(v):
    # bool is an int subclass in Python; the schema keeps them distinct.
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return is_int(v) or isinstance(v, float)


def check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            fail(f"{where}{key}" if where else key, "unknown key")


def get_int(obj, where, key, minimum):
    v = obj.get(key)
    if v is None:
        return None
    if not is_int(v):
        fail(f"{where}{key}", "expected an integer")
    if v < minimum:
        fail(f"{where}{key}", f"must be >= {minimum} (got {v})")
    return v


def get_number(obj, where, key, minimum=None, exclusive=False):
    v = obj.get(key)
    if v is None:
        return None
    if not is_number(v):
        fail(f"{where}{key}", "expected a number")
    if minimum is not None and (v <= minimum if exclusive else v < minimum):
        bound = ">" if exclusive else ">="
        fail(f"{where}{key}", f"must be {bound} {minimum} (got {v})")
    return v


def get_prob(obj, where, key):
    v = get_number(obj, where, key, minimum=0)
    if v is not None and v > 1:
        fail(f"{where}{key}", f"probability {v} out of [0, 1]")
    return v


def get_bool(obj, where, key):
    v = obj.get(key)
    if v is not None and not isinstance(v, bool):
        fail(f"{where}{key}", "expected a boolean")
    return v


def get_string(obj, where, key):
    v = obj.get(key)
    if v is not None and not isinstance(v, str):
        fail(f"{where}{key}", "expected a string")
    return v


def check_options(opts, version):
    if not isinstance(opts, dict):
        fail("options", "expected an object")
    check_keys(opts, OPTION_KEYS_V2 if version >= 2 else OPTION_KEYS,
               "options.")
    get_int(opts, "options.", "jobs", 0)
    cache_dir = get_string(opts, "options.", "cache_dir")
    use_cache = get_bool(opts, "options.", "use_cache")
    get_int(opts, "options.", "run_retries", 0)
    verify_replay = get_bool(opts, "options.", "verify_replay")
    if verify_replay and use_cache is False:
        fail("options.verify_replay", "requires use_cache")
    get_string(opts, "options.", "journal_path")
    get_bool(opts, "options.", "resume")
    get_bool(opts, "options.", "isolate")
    get_number(opts, "options.", "isolate_timeout_s", minimum=0,
               exclusive=True)
    get_int(opts, "options.", "isolate_retries", 0)
    cap = get_int(opts, "options.", "cache_cap_bytes", 0)
    if cap and not cache_dir:
        fail("options.cache_cap_bytes",
             "requires a disk cache (set options.cache_dir)")
    if version >= 2:
        sampling = get_bool(opts, "options.", "sampling")
        get_int(opts, "options.", "sample_period", 2)
        get_int(opts, "options.", "warmup_iters", 0)
        verify_sampling = get_prob(opts, "options.", "verify_sampling")
        if verify_sampling and not sampling:
            fail("options.verify_sampling",
                 "only checks sampled estimates (set options.sampling)")
        if sampling and opts.get("verify_replay"):
            fail("options.sampling",
                 "incompatible with verify_replay: sampled records are "
                 "estimates, never byte-compared (use verify_sampling)")
        if get_bool(opts, "options.", "checkpoints"):
            fail("options.checkpoints",
                 "checkpoint warm-starts were removed; drop the member")


def check_fault(fault):
    if not isinstance(fault, dict):
        fail("fault", "expected an object")
    check_keys(fault, FAULT_KEYS, "fault.")
    get_int(fault, "fault.", "seed", 0)
    get_prob(fault, "fault.", "straggler_fraction")
    get_prob(fault, "fault.", "straggler_slowdown")
    get_number(fault, "fault.", "dvfs_jitter_s", minimum=0)
    get_prob(fault, "fault.", "message_delay_prob")
    get_number(fault, "fault.", "message_delay_s", minimum=0)
    get_prob(fault, "fault.", "message_drop_prob")
    get_int(fault, "fault.", "max_send_attempts", 1)
    get_number(fault, "fault.", "retry_backoff_s", minimum=0)
    get_prob(fault, "fault.", "node_failure_prob")
    get_number(fault, "fault.", "node_failure_window_s", minimum=0,
               exclusive=True)


def check_spec(doc):
    if not isinstance(doc, dict):
        fail("document", "expected a JSON object")
    if "version" not in doc:
        fail("version", "required field is missing")
    if not is_int(doc["version"]) or doc["version"] not in (1, 2):
        fail("version", "unsupported schema version (expected 1 or 2)")
    version = doc["version"]
    check_keys(doc, TOP_KEYS_V2 if version >= 2 else TOP_KEYS, "")

    kernel = get_string(doc, "", "kernel")
    if kernel is not None and kernel not in KERNELS:
        fail("kernel", f'unknown kernel "{kernel}" '
             f"(expected one of {sorted(KERNELS)})")
    scale = get_string(doc, "", "scale")
    if scale is not None and scale not in SCALES:
        fail("scale", f'unknown scale "{scale}" '
             f"(expected one of {sorted(SCALES)})")

    nodes = doc.get("nodes")
    if nodes is not None:
        if not isinstance(nodes, list):
            fail("nodes", "expected an array of integers")
        for n in nodes:
            if not is_int(n):
                fail("nodes", "expected an array of integers")
            if n < 1:
                fail("nodes", f"node count {n} must be >= 1")

    freqs = doc.get("freqs_mhz")
    if freqs is not None:
        if not isinstance(freqs, list):
            fail("freqs_mhz", "expected an array of MHz")
        for f in freqs:
            if not is_number(f):
                fail("freqs_mhz", "expected an array of MHz")
            if f <= 0:
                fail("freqs_mhz", f"frequency {f} must be > 0")

    get_number(doc, "", "comm_dvfs_mhz", minimum=0)
    if version >= 2:
        get_int(doc, "", "iterations", 0)
    if "options" in doc:
        check_options(doc["options"], version)
    if "fault" in doc:
        check_fault(doc["fault"])


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            check_spec(doc)
            print(f"{path}: OK")
        except (OSError, json.JSONDecodeError, SpecError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
