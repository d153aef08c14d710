"""The four workloads, by name.  Imported lazily: each pulls in ``repro``."""

import importlib

NAMES = ("safe_tpch", "unsafe_cold", "stream_updates", "service_mix")


def load(name, smoke=False):
    if name not in NAMES:
        raise SystemExit(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"workloads.{name}").WORKLOAD(smoke=smoke)
