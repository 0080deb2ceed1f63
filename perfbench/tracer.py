"""Run the uqchar CLI with the calls into its layers timed from outside.

Usage (from the repository root, with PYTHONPATH=src):

    python3 perfbench/tracer.py chartable --q 3 --n 3

The arguments are those of `python -m uqchar.cli`.  Stdout and the exit code
are the CLI's own.  After the command finishes, one line starting with
TRACE_MARKER and holding a JSON object is appended to stderr:

    {"targets": {name: {"calls", "self_s", "hits", "misses", "coeff_ops"}},
     "field_degree": int, "missing": [...], "bypassed": [...]}

Nothing under src/ is changed: each target function is wrapped here and the
wrapper is bound in place of the original in every uqchar module that holds
the original by name (a `from .x import f` copies the reference, so patching
only the defining module would miss most calls).  A span is timed only for
the outermost active call of a target; self_s is that span's time minus the
time of wrapped calls made inside it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

TRACE_MARKER = "perfbench-trace "
PACKAGE = "uqchar"

# (stat name, module, attribute path).  Cyclotomic.__mul__ is handled apart
# because it is split by operand kind into mul and mul_scalar.
TARGETS = (
    ("multipartition.enumerate_multipartitions", "multipartition", "enumerate_multipartitions"),
    ("multipartition.mp_bar", "multipartition", "mp_bar"),
    ("torus.frobenius_orbit", "torus", "frobenius_orbit"),
    ("torus.orbits_up_to", "torus", "orbits_up_to"),
    ("symfunc.char_table", "symfunc", "char_table"),
    ("symfunc.char_row", "symfunc", "char_row"),
    ("symfunc._transform_terms", "symfunc", "_transform_terms"),
    ("symfunc._transform_embedded", "symfunc", "_transform_embedded"),
    ("symfunc.schur_to_power", "symfunc", "schur_to_power"),
    ("symfunc.power_to_hl", "symfunc", "power_to_hl"),
    ("symfunc.hl_m_vector", "symfunc", "hl_m_vector"),
    ("symfunc.CharTable.value", "symfunc", "CharTable.value"),
    ("symfunc.CharTable.to_json", "symfunc", "CharTable.to_json"),
    ("cyclotomic.add", "cyclotomic", "Cyclotomic.__add__"),
    ("cyclotomic.conjugate", "cyclotomic", "Cyclotomic.conjugate"),
    ("cyclotomic.embed", "cyclotomic", "embed"),
    ("cyclotomic.to_text", "cyclotomic", "to_text"),
    ("conjclasses.class_table", "conjclasses", "class_table"),
    ("conjclasses.class_square", "conjclasses", "class_square"),
    ("characters.census_semisimple", "characters", "census_semisimple"),
    ("characters.degree", "characters", "degree"),
    ("characters.is_real", "characters", "is_real"),
    ("characters.fs_bruteforce", "characters", "fs_bruteforce"),
    ("selfdual.enumerate_self_dual", "selfdual", "enumerate_self_dual"),
    ("selfdual.brute_force_self_dual", "selfdual", "brute_force_self_dual"),
    ("selfdual.char_to_polynomial", "selfdual", "char_to_polynomial"),
    ("cli._json", "cli", "_json"),
    ("cli._tsv", "cli", "_tsv"),
    ("cli._emit", "cli", "_emit"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
)
MUL_TARGET = ("cyclotomic", "Cyclotomic.__mul__")
MUL_STATS = ("cyclotomic.mul", "cyclotomic.mul_scalar")


class Stat:
    """Counters of one target, summed over the whole command."""

    __slots__ = ("calls", "self_s", "depth", "coeff_ops")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.coeff_ops = 0


class Tracer:
    """Installs timing wrappers into the loaded uqchar modules."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.cached: dict[str, object] = {}  # stat name -> original @cache'd function
        self.missing: list[str] = []
        # time of wrapped calls inside the active span; the base entry has no span
        self._child = [0.0]

    def _span(self, stat: Stat, fn, args, kwargs):
        stat.calls += 1
        if stat.depth:  # recursive re-entry: part of the outer span
            return fn(*args, **kwargs)
        stat.depth = 1
        child = self._child
        child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stat.self_s += dt - child.pop()
            child[-1] += dt
            stat.depth = 0

    def _timed(self, name: str, fn):
        stat = self.stats[name] = Stat()
        span = self._span

        def wrapper(*args, **kwargs):
            return span(stat, fn, args, kwargs)

        return wrapper

    @staticmethod
    def _lookup(module: str, path: str):
        """(owner, original) or None when the target is gone."""
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(attr)
        return None if original is None else (owner, original)

    @staticmethod
    def _rebind(owner, original, wrapped) -> None:
        # a method is rebound under every alias in its class (__radd__ =
        # __add__); a function in every uqchar module that imported it
        if isinstance(owner, type):
            namespaces = [owner]
        else:
            namespaces = [m for k, m in sys.modules.items()
                          if m is not None and k.split(".")[0] == PACKAGE]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)

    def install(self) -> None:
        for name, module, path in TARGETS:
            found = self._lookup(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, original = found
            if hasattr(original, "cache_info"):
                self.cached[name] = original
            self._rebind(owner, original, self._timed(name, original))
        self._install_mul()

    def _install_mul(self) -> None:
        found = self._lookup(*MUL_TARGET)
        if found is None:
            self.missing.extend(MUL_STATS)
            return
        owner, original = found
        ring, scalar = (self.stats.setdefault(n, Stat()) for n in MUL_STATS)
        span = self._span

        def mul(a, b):
            if isinstance(b, owner):
                # computed, not counted inside the program: the schoolbook
                # product does one coefficient multiply per nonzero pair
                ring.coeff_ops += _nnz(a.coeffs) * _nnz(b.coeffs)
                return span(ring, original, (a, b), {})
            return span(scalar, original, (a, b), {})

        self._rebind(owner, original, mul)

    def report(self) -> dict:
        targets = {}
        bypassed = []
        for name, stat in self.stats.items():
            entry = {"calls": stat.calls, "self_s": stat.self_s, "coeff_ops": stat.coeff_ops}
            cached = self.cached.get(name)
            if cached is not None:
                info = cached.cache_info()
                entry["hits"], entry["misses"] = info.hits, info.misses
                if info.hits + info.misses != stat.calls:
                    bypassed.append(name)
            targets[name] = entry
        missing = list(self.missing)
        fields = getattr(sys.modules.get(f"{PACKAGE}.cyclotomic"), "_fields", None)
        if fields is None:
            missing.append("cyclotomic._fields")
        degree = max((f.degree for f in (fields or {}).values()), default=0)
        return {"targets": targets, "field_degree": degree,
                "missing": missing, "bypassed": bypassed}


_ZERO = Fraction(0)


def _nnz(coeffs) -> int:
    return len(coeffs) - coeffs.count(_ZERO)


def main(argv: list[str]) -> int:
    from uqchar import cli

    tracer = Tracer()
    tracer.install()
    status = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.report(), sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
