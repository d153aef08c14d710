#!/usr/bin/env python3
"""Which ``src/`` functions a benchmark request runs, and which it never does.

Runs one set-up and one pass of each workload's seeded schedule in this
process under ``sys.setprofile`` and records every function under
``src/repro`` that is entered.  ``service_mix`` is routed through an
in-process ``QueryService.execute`` instead of its HTTP server, so the
service's request handlers are seen too.  The workloads are imported from
``bench/workloads`` and used read-only; their probes are not run.

Prints the functions entered while importing the workloads (module-level
set-up such as the TPC-H query registry), then, per workload, the functions
entered by its set-up and pass, by module and qualified name, then the
functions nothing entered, then one summary line of counts.
It is a report, not a gate: run it on two commits and diff the output to
see whether a change removed something a request runs::

    python tools/request_reach.py                 # all four workloads
    python tools/request_reach.py unsafe_cold     # one workload
"""

from __future__ import annotations

import ast
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SEED = 1


def defined_functions():
    """``module:qualname`` of every function and method defined under ``src/repro``,
    qualified the way ``code.co_qualname`` names them."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    names.add(f"{module}:{qualname}")
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return names


def module_name(path):
    parts = list(Path(path).resolve().relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Reach:
    """A profile hook that collects the ``src/repro`` functions entered."""

    def __init__(self, defined):
        self.defined = defined
        self.entered = set()
        self._modules = {}

    def hook(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        module = self._modules.get(code.co_filename)
        if module is None:
            path = Path(code.co_filename)
            inside = path.is_absolute() and path.resolve().is_relative_to(PACKAGE)
            module = self._modules[code.co_filename] = module_name(path) if inside else ""
        if module:
            name = f"{module}:{code.co_qualname}"
            if name in self.defined:
                self.entered.add(name)

    def __enter__(self):
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def run_workload(name, reach):
    """Set up ``name`` and run one pass of its schedule under ``reach``."""
    import workloads

    workload = workloads.load(name)
    if name == "service_mix":
        return run_service_mix(workload, reach)
    with reach:
        workload.setup()
        try:
            ops = workload.schedule(SEED)
            workload.begin_pass()
            outcomes = workload.run_pass(ops)
        finally:
            workload.teardown()
    return [found for _, found in outcomes if found.startswith("!")]


def run_service_mix(workload, reach):
    """``service_mix``'s schedule on the in-process service its cross-check
    compares the server with, set up the way its server is."""
    from workloads.service_mix import CLIENTS, K, SUBSCRIPTION, execute, probabilistic_tpch

    from repro.service import QueryService

    errors = []
    with reach:
        workload.db = probabilistic_tpch(workload.scale, seed=7, probability_seed=11)
        workload.local = service = QueryService(workload.db).start()
        try:
            subscribed = [
                service.execute("subscribe", {"sql": SUBSCRIPTION, "k": K})
                for _ in range(CLIENTS)
            ]
            workload.subscriptions = [payload["subscription"] for payload in subscribed]
            workload.variables = subscribed[0]["variables"]
            for who, kind, argument in workload.schedule(SEED):
                try:
                    execute(service, workload.subscriptions[who], kind, argument)
                except Exception as error:  # reported, like a failed bench op
                    errors.append(f"!{type(error).__name__}: {error}")
        finally:
            workload.teardown()
    return errors


def main(argv):
    sys.path[:0] = [str(ROOT / "bench"), str(SRC)]
    from workloads import NAMES

    chosen = argv or list(NAMES)
    unknown = sorted(set(chosen) - set(NAMES))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {NAMES}")
    defined = defined_functions()
    imports = Reach(defined)
    with imports:
        for name in chosen:
            importlib.import_module(f"workloads.{name}")
        import repro.service  # noqa: F401  (service_mix's in-process route)
    print(f"== import: {len(imports.entered)} entered")
    for function in sorted(imports.entered):
        print(f"   {function}")
    reached = set(imports.entered)
    failed = 0
    summary = [f"import {len(imports.entered)}"]
    for name in chosen:
        reach = Reach(defined)
        errors = run_workload(name, reach)
        failed += len(errors)
        reached |= reach.entered
        print(f"== {name}: {len(reach.entered)} entered, {len(errors)} failed")
        for error in errors[:5]:
            print(f"   failed: {error}")
        for function in sorted(reach.entered):
            print(f"   {function}")
        summary.append(f"{name} {len(reach.entered)}")
    never = sorted(defined - reached)
    print(f"== never entered: {len(never)}")
    for function in never:
        print(f"   {function}")
    print(
        f"summary: {len(defined)} functions under src/repro; entered "
        + ", ".join(summary)
        + f"; any workload {len(reached)}; never {len(never)}; failed ops {failed}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The benchmark pins string hashing (bench/harness.py scrubbed_env);
        # so does this report, so that set orders repeat run to run.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.exit(main(sys.argv[1:]))
