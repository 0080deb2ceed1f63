"""Replayable mutation checks: each mutant breaks one check on purpose.

A mutant names a file of the repository, an exact snippet `old` that occurs
there once, its replacement `new`, and the tests that must fail once `old`
is replaced.  tests/test_mutants.py checks, in milliseconds, that every
snippet still occurs exactly once and that every named test exists, so a
refactor cannot leave the catalogue behind without a failing test.

Running this file applies each mutant in turn to a temporary copy of the
repository and runs only its named tests there:

    python tests/mutants.py            # every mutant, one after another
    python tests/mutants.py NAME ...   # only the named mutants

It prints one line per mutant: `killed` when every named test fails (for a
parametrized test, at least one of its cases), `SURVIVED` with the named
tests that passed, or `ERROR` when pytest could not run them or did not
finish within TIMEOUT_S seconds.  The exit status is 1 unless every mutant
is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant that makes a loop run forever is reported, not waited for
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "inverse-unchecked", "src/uqchar/gf.py",
        "        if len(r0) != 1:\n",
        "        if False:\n",
        ("tests/test_gf.py::test_inverse_rejects_a_reducible_modulus",)),
    Mutant(
        "quotient-digits-all-one", "src/uqchar/gf.py",
        "        quot[shift] = factor\n",
        "        quot[shift] = F.one\n",
        ("tests/test_gf.py::test_poly_divmod_round_trip",
         "tests/test_gf.py::test_ext_field_inverse_and_embed")),
    Mutant(
        "orbit-factor-taken-once", "src/uqchar/selfdual.py",
        "            for _ in range(sum(parts)):\n",
        "            for _ in range(1):\n",
        ("tests/test_selfdual.py::test_realization_u2_f9",)),
    Mutant(
        "constant-not-refused", "src/uqchar/selfdual.py",
        "    if constant not in (None, 1, -1):\n        raise ValueError(",
        "    if constant not in (None, 1):\n        constant = -1\n    if False:\n"
        "        raise ValueError(",
        ("tests/test_selfdual.py::"
         "test_a_constant_other_than_plus_or_minus_one_is_refused",)),
    Mutant(
        "tsv-booleans-as-words", "src/uqchar/cli.py",
        "[int(c) if isinstance(c, bool) else c for c in r]",
        "list(r)",
        ("tests/test_cli.py::test_label_lists_are_pinned",
         "tests/test_cli.py::test_listings_match_their_whole_document")),
    Mutant(
        "batch-separator-dropped", "src/uqchar/cli.py",
        '        sep = ","\n',
        '        sep = ""\n',
        ("tests/test_cli.py::test_listings_match_their_whole_document",
         "tests/test_cli.py::test_json_chunks_add_up_to_the_whole_document",
         "tests/test_cli.py::test_listings_are_written_in_chunks")),
    Mutant(
        "last-batch-dropped", "src/uqchar/cli.py",
        "range(0, len(items), BATCH)",
        "range(0, len(items) - BATCH, BATCH)",
        ("tests/test_cli.py::test_listings_match_their_whole_document",
         "tests/test_cli.py::test_json_chunks_add_up_to_the_whole_document",
         "tests/test_cli.py::test_listings_are_written_in_chunks")),
    Mutant(
        "verify-always-exits-zero", "src/uqchar/cli.py",
        '    return 1 if any(line.startswith("FAIL:") for line in lines) else 0\n',
        "    return 0\n",
        ("tests/test_cli.py::test_verify_fails_on_a_corrupted_table",
         "tests/test_cli.py::test_verify_fails_on_a_non_integral_value")),
    Mutant(
        "orthogonality-ignores-denominators", "src/uqchar/cli.py",
        "        return False  # character values are cyclotomic integers\n",
        "        pass\n",
        ("tests/test_cli.py::test_verify_fails_on_a_row_over_a_denominator",)),
    Mutant(
        "verify-bijection-line-always-ok", "src/uqchar/cli.py",
        "            image == set(sd_all),\n",
        "            True,\n",
        ("tests/test_cli.py::test_verify_fails_when_a_self_dual_check_breaks",)),
    Mutant(
        "verify-brute-force-line-always-ok", "src/uqchar/cli.py",
        "            sd_all == brute_force_self_dual(F, n),\n",
        "            True,\n",
        ("tests/test_cli.py::test_verify_fails_when_a_self_dual_check_breaks",)),
    Mutant(
        "fs-refusal-dropped", "src/uqchar/cli.py",
        "        if cells > args.max_cells:\n            raise TableTooLarge(\n",
        "        if False:\n            raise TableTooLarge(\n",
        ("tests/test_cli.py::test_fs_refusal_when_brute_needed_and_table_large",)),
    Mutant(
        "memory-error-unhandled", "src/uqchar/cli.py",
        "    except MemoryError:  # its text is empty\n",
        "    except ():  # its text is empty\n",
        ("tests/test_cli.py::test_running_out_of_memory_is_one_error_line",)),
    Mutant(
        "two-core-route-returns-one", "src/uqchar/characters.py",
        "    return (-1) ** (sum(core) // 2)\n",
        "    return 1\n",
        ("tests/test_cli.py::test_indicator_sum_counts_square_roots_of_one",
         "tests/test_characters.py::test_fs_unipotent_examples")),
    Mutant(
        "route-disagreement-unraised", "src/uqchar/characters.py",
        "    if via_sigma not in (None, via_centre):\n",
        "    if False:\n",
        ("tests/test_characters.py::test_closed_form_raises_when_routes_disagree",)),
    Mutant(
        "census-route-check-dropped", "src/uqchar/characters.py",
        "            if agree != real:\n",
        "            if False:\n",
        ("tests/test_characters.py::test_census_raises_when_routes_disagree",
         "tests/test_characters.py::test_census_route_agreement_compares_the_routes_itself")),
    Mutant(
        "census-pairs-weighted-d", "src/uqchar/characters.py",
        "            units[2 * d, 0, 0] = pairs\n",
        "            units[d, 0, 0] = units.get((d, 0, 0), 0) + pairs\n",
        ("tests/test_characters.py::test_census_u2_f9",
         "tests/test_characters.py::test_census_closed_forms",
         "tests/test_characters.py::test_real_semisimple_labels_match_filtered_enumeration",
         "tests/test_characters.py::test_census_matches_the_enumerating_oracle")),
    Mutant(
        "census-omega-bit-ignored", "src/uqchar/characters.py",
        "        units[d, 1, 0] = order_two\n",
        "        units[d, 0, 0] += order_two\n        units[d, 1, 0] = 0\n",
        ("tests/test_characters.py::test_census_u2_f9",
         "tests/test_characters.py::test_census_closed_forms",
         "tests/test_characters.py::test_census_matches_the_enumerating_oracle")),
    Mutant(
        "census-sigma-unit-not-moved", "src/uqchar/characters.py",
        "        units[sigma.level, int(w != 0), 0] -= 1\n"
        "        units[sigma.level, int(w != 0), 1] = 1\n",
        "        pass\n",
        ("tests/test_characters.py::test_census_u2_f9",
         "tests/test_characters.py::test_census_closed_forms",
         "tests/test_characters.py::test_census_route_agreement_compares_the_routes_itself")),
    Mutant(
        "is-real-skips-level-one", "src/uqchar/characters.py",
        "    return {conjugate_orbit(ctx, o): p for o, p in lam.entries} == dict(lam.entries)\n",
        "    return ({conjugate_orbit(ctx, o): p for o, p in lam.entries if o.level > 1}\n"
        "            == {o: p for o, p in lam.entries if o.level > 1})\n",
        ("tests/test_characters.py::test_is_real_agrees_with_the_conjugate_label",)),
    Mutant(
        "is-real-stops-at-the-first-non-real-entry", "src/uqchar/characters.py",
        "    return {conjugate_orbit(ctx, o): p for o, p in lam.entries} == dict(lam.entries)\n",
        "    entries = dict(lam.entries)\n"
        "    return all(entries.get(conjugate_orbit(ctx, o)) == p for o, p in lam.entries)\n",
        ("tests/test_characters.py::test_is_real_refuses_an_orbit_above_the_degree",)),
    Mutant(
        "omega-drops-the-level-sign", "src/uqchar/characters.py",
        "    return sum((-1) ** (phi.level - 1) * phi.min_exponent * sum(parts)\n",
        "    return sum(phi.min_exponent * sum(parts)\n",
        ("tests/test_characters.py::test_omega_examples",
         "tests/test_characters.py::test_omega_matches_the_orbit_sum_on_every_label")),
    Mutant(
        "regular-shapes-also-columns", "src/uqchar/characters.py",
        '    "regular": lambda k: ((k,),),\n',
        '    "regular": lambda k: ((k,), (1,) * k)[:k],\n',
        ("tests/test_characters.py::test_semisimple_labels_match_filtered_enumeration",
         "tests/test_cli.py::test_label_lists_are_pinned")),
    Mutant(
        "unipotent-filtered-from-every-label", "src/uqchar/characters.py",
        '    if family == "all":\n        return enumerate_multipartitions(ctx, n, THETA)\n',
        '    if family in ("all", "unipotent"):\n'
        "        return tuple(lam for lam in enumerate_multipartitions(ctx, n, THETA)\n"
        '                     if family == "all" or is_unipotent(lam))\n',
        ("tests/test_cli.py::test_a_family_is_generated_without_enumerating_every_label",)),
    Mutant(
        "degree-drops-the-entry-level", "src/uqchar/characters.py",
        "= _entry_factors(q, o.level, parts)",
        "= _entry_factors(q, 1, parts)",
        ("tests/test_cli.py::test_degrees_work_once_per_distinct_entry",
         "tests/test_characters.py::test_degree_sum_of_squares_is_group_order")),
    Mutant(
        "degree-bypasses-the-entry-cache", "src/uqchar/characters.py",
        "        power, hook_product = _entry_factors(q, o.level, parts)\n",
        "        power, hook_product = _entry_factors.__wrapped__(q, o.level, parts)\n",
        ("tests/test_cli.py::test_degrees_work_once_per_distinct_entry",)),
    Mutant(
        "order-factor-stops-at-n-minus-1", "src/uqchar/conjclasses.py",
        "for k in range(1, n + 1))",
        "for k in range(1, n))",
        ("tests/test_conjclasses.py::test_group_orders",)),
    Mutant(
        "entry-centralizer-keyed-without-its-level", "src/uqchar/conjclasses.py",
        "_entry_centralizer(ctx.q, orbit.level, parts)",
        "_entry_centralizer(ctx.q, 1, parts)",
        ("tests/test_conjclasses.py::test_centralizer_order_matches_the_fraction_formula",
         "tests/test_conjclasses.py::test_class_table_computes_each_entry_factor_once")),
    Mutant(
        "entry-centralizer-sign-dropped", "src/uqchar/conjclasses.py",
        "val *= (-1) ** (level * j) * modulus_of(q, level * j)",
        "val *= modulus_of(q, level * j)",
        ("tests/test_conjclasses.py::test_centralizer_order_matches_the_fraction_formula",)),
    Mutant(
        "galois-rational-shortcut-before-unit-check", "src/uqchar/cyclotomic.py",
        "    if gcd(k, m) != 1:\n        raise ValueError(f\"{k} is not a unit mod {m}\")\n"
        "    if a.is_rational():  # sigma_k fixes Q\n        return a\n",
        "    if a.is_rational():  # sigma_k fixes Q\n        return a\n"
        "    if gcd(k, m) != 1:\n        raise ValueError(f\"{k} is not a unit mod {m}\")\n",
        ("tests/test_cyclotomic.py::test_galois_refuses_a_non_unit_on_a_rational_value",)),
    Mutant(
        "phi-drops-mu-minus-one-at-d-1", "src/uqchar/cyclotomic.py",
        "        elif mu == -1:\n",
        "        elif mu == -1 and d > 1:\n",
        ("tests/test_cyclotomic.py::test_cyclotomic_product_identity_on_cli_fields",)),
    Mutant(
        "orbit-count-ignores-the-subgroup", "src/uqchar/torus.py",
        "moebius(d // k) * gcd(order, ctx.modulus(k))",
        "moebius(d // k) * ctx.modulus(k)",
        ("tests/test_torus.py::test_self_conjugate_counts_match_the_scan",
         "tests/test_torus.py::test_order_two_self_conjugate_orbits_sit_at_level_one",
         "tests/test_characters.py::test_census_closed_forms")),
    Mutant(
        "orbit-levels-smallest-first", "src/uqchar/torus.py",
        "    for d in range(n, 0, -1):",
        "    for d in range(1, n + 1):",
        ("tests/test_torus.py::test_orbits_up_to_asks_for_the_largest_level_first",)),
    Mutant(
        "context-accepts-any-q", "src/uqchar/torus.py",
        "        if prime_power(q) is None:\n            raise ValueError(",
        "        if False:\n            raise ValueError(",
        ("tests/test_torus.py::test_context_validation",
         "tests/test_torus.py::test_context_refusals_keep_their_messages")),
    Mutant(
        "make-keeps-input-order", "src/uqchar/multipartition.py",
        "        entries.sort()\n",
        "",
        ("tests/test_multipartition.py::test_multipartitions_are_immutable_values",)),
    Mutant(
        "make-accepts-a-repeated-orbit", "src/uqchar/multipartition.py",
        "            if a == b:\n",
        "            if False:\n",
        ("tests/test_multipartition.py::test_make_normalizes",)),
    Mutant(
        "shapes-in-increasing-k", "src/uqchar/multipartition.py",
        "        key=lambda choice: [-a for a in choice[1]])\n",
        "        key=lambda choice: choice[0])\n",
        ("tests/test_multipartition.py::test_enumeration_is_sorted_and_canonical",
         "tests/test_cli.py::test_benchmark_cases_match_their_reference")),
    Mutant(
        "entries-not-shared", "src/uqchar/multipartition.py",
        "acc + shared.setdefault(entry, (entry,))",
        "acc + (entry,)",
        ("tests/test_multipartition.py::test_labels_share_each_distinct_entry",)),
    Mutant(
        "count-semisimple-as-all", "src/uqchar/multipartition.py",
        'if family == "all" else (d,)\n',
        'if family in ("all", "semisimple") else (d,)\n',
        ("tests/test_characters.py::test_semisimple_labels_match_filtered_enumeration",
         "tests/test_characters.py::test_real_semisimple_labels_match_filtered_enumeration",
         "tests/test_multipartition.py::test_label_count_skips_a_size_with_no_orbit")),
    Mutant(
        "count-at-n-minus-1", "src/uqchar/multipartition.py",
        "    return series[n]\n",
        "    return series[n - 1]\n",
        ("tests/test_multipartition.py::test_enumeration_counts_match_generating_function",
         "tests/test_multipartition.py::test_label_count_needs_no_enumeration",
         "tests/test_symfunc.py::test_a_table_is_priced_before_any_label_is_built")),
    Mutant(
        "class-galois-ignores-k", "src/uqchar/multipartition.py",
        "frobenius_orbit(ctx, o.level, k * o.min_exponent)",
        "frobenius_orbit(ctx, o.level, (1 if mp.side == 'phi' else k)"
        " * o.min_exponent)",
        ("tests/test_symfunc.py::test_columns_are_galois_equivariant",)),
    Mutant(
        "chartable-enumerates-before-pricing", "src/uqchar/symfunc.py",
        "    cells = label_count(ctx) ** 2  # as many classes as characters\n",
        "    chars = enumerate_multipartitions(ctx, n, THETA)\n"
        "    cells = label_count(ctx) ** 2  # as many classes as characters\n",
        ("tests/test_symfunc.py::test_a_table_is_priced_before_any_label_is_built",)),
    Mutant(
        "galois-walk-squares-the-generator", "src/uqchar/symfunc.py",
        "                    kg = k * g % big\n",
        "                    kg = k * g * g % big\n",
        ("tests/test_symfunc.py::test_galois_orbits_of_labels",
         "tests/test_symfunc.py::test_rows_are_galois_equivariant")),
    Mutant(
        "image-rows-skip-sigma-k", "src/uqchar/symfunc.py",
        "tuple(sorted((e * k % big, c) for e, c in ring))",
        "tuple(sorted((e, c) for e, c in ring))",
        ("tests/test_symfunc.py::test_rows_are_galois_equivariant",
         "tests/test_cli.py::test_benchmark_cases_match_their_reference")),
    Mutant(
        "reduction-cache-ignores-denominator", "src/uqchar/symfunc.py",
        "@cache\ndef _reduced(",
        "def _by_sum(reduce):\n"
        "    seen = {}\n\n"
        "    def first(modulus, ring, den):\n"
        "        if (modulus, ring) not in seen:\n"
        "            seen[modulus, ring] = reduce(modulus, ring, den)\n"
        "        return seen[modulus, ring]\n"
        "    first.cache_clear = seen.clear\n"
        "    return first\n\n\n"
        "@_by_sum\ndef _reduced(",
        ("tests/test_symfunc.py::test_rows_are_galois_equivariant",
         "tests/test_cli.py::test_benchmark_cases_match_their_reference")),
    Mutant(
        "green-normalization-drops-the-level", "src/uqchar/symfunc.py",
        "        val = c * x ** n_stat(shape)\n",
        "        val = c * (-q) ** n_stat(shape)\n",
        ("tests/test_symfunc.py::test_green_is_the_normalized_hall_littlewood_coefficient",
         "tests/test_symfunc.py::test_green_values_are_orthogonal")),
    Mutant(
        "green-integrality-unchecked", "src/uqchar/symfunc.py",
        "        if val.denominator != 1:\n",
        "        if False:\n",
        ("tests/test_symfunc.py::test_green_refuses_a_value_that_is_not_an_integer",)),
)


def run(mutant: Mutant) -> str:
    """Apply mutant to a copy of the repository and run its tests there."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "ERROR (old snippet does not occur exactly once)"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"ERROR (tests still running after {TIMEOUT_S} s)"
    # pytest exits 0 when every test passed and 1 when some test failed
    if proc.returncode not in (0, 1):
        return f"ERROR (pytest exit {proc.returncode})"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    passed = [test for test in mutant.tests
              if not any(f == test or f.startswith(test + "[") for f in failed)]
    return f"SURVIVED ({', '.join(passed)} passed)" if passed else "killed"


def main(names) -> int:
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"error: unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    killed = True
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            verdict = run(mutant)
            print(f"{verdict}: {mutant.name}", flush=True)
            killed &= verdict == "killed"
    return 0 if killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
