#!/usr/bin/env python3
"""Run a fixed list of mutants and report which the tests kill.

Each mutant is one defect that a test is known to catch: a file under
src/ or tests/, an exact snippet of it, the replacement, and the pytest
node ids that must fail once the snippet is replaced.

    python3 scripts/mutants.py

For each mutant, src/, tests/ and pyproject.toml are copied to a
temporary directory, the replacement is made there and only the named
tests run.  The result is "killed" when a named test fails, "survived"
when they all pass, and "stale" when the snippet does not occur exactly
once or a named test function no longer exists; a stale mutant is not
run.  The named tests first run once unmutated, and must pass.  The exit
code is 0 when every mutant is killed, 1 otherwise.  Each mutant
copies the tree and starts its own pytest, so the whole list of 43 took
2 min 51 s on a 2-vCPU host with Python 3.11.7 and nothing else
running; tier-1 runs only the stale check (tests/test_mutants.py).  A
new fast path adds its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name, file, snippet, replacement, node ids that must fail
MUTANTS = (
    ("packing-one-bit-narrower", "src/serrespec/zring.py",
     "width = (max(map(sum, values)) * max(map(max, values))).bit_length()",
     "width = (max(map(sum, values)) * max(map(max, values))).bit_length() - 1",
     ["tests/test_zring.py::"
      "test_width_boundary_tables_hold_the_carried_violation"]),
    ("route-rule-inverted", "src/serrespec/zring.py",
     "return weighted > cells",
     "return weighted <= cells",
     ["tests/test_zring.py::test_packing_rule_picks_the_route"]),
    ("work-bound-without-the-cell-weight", "src/serrespec/zring.py",
     "if _CELLS_PER_PARTIAL_PRODUCT * terms * max(weights, default=0) <= cells:",
     "if terms * max(weights, default=0) <= cells:",
     ["tests/test_zring.py::"
      "test_packing_rule_picks_the_route[carry-5x8-gap-3000]"]),
    ("commutative-with-an-unpaired-row", "src/serrespec/zring.py",
     "    return upper == lower\n",
     "    return True\n",
     ["tests/test_zring.py::test_commutativity_compares_each_unordered_pair"]),
    ("unpacked-at-the-wrong-exponent-base", "src/serrespec/zring.py",
     "unpacked = {s: _unpack(s, width, n, 2 * emin, step) for s in sums}",
     "unpacked = {s: _unpack(s, width, n, emin, step) for s in sums}",
     ["tests/test_zring.py::"
      "test_packed_and_sparse_paths_find_the_oracle_triples"]),
    ("one-combine-memo-for-both-sides", "src/serrespec/zring.py",
     "    left = {}\n    right = {}\n",
     "    left = right = {}\n",
     ["tests/test_zring.py::test_shared_rows_are_summed_as_their_copies"]),
    ("prime-generators-rotated", "src/serrespec/topology.py",
     "least = [closures[first[p]] for p in primes]",
     "least = [closures[first[p]] for p in primes[1:] + primes[:1]]",
     ["tests/test_topology.py::test_zariski_topology_reads_no_lattice"]),
    ("closing-bracket-after-the-last-separator", "src/serrespec/cli.py",
     'pieces[-1] = tail + "\\n" + indent + "]"',
     'pieces.append(tail + "\\n" + indent + "]")',
     ["tests/test_cli.py::"
      "test_closed_sets_render_as_json_dumps_wherever_the_empty_set_is"]),
    ("discrete-test-vacuous", "src/serrespec/ideals.py",
     "if all(c == 1 << g for g, c in enumerate(closures)):",
     "if all(c >> g & 1 for g, c in enumerate(closures)):",
     ["tests/test_ideals.py::test_one_comparable_pair_takes_the_search"]),
    ("discrete-subsets-over-reversed-bits", "src/serrespec/ideals.py",
     "for bit in reversed([1 << g for g in iter_bits(full)]):",
     "for bit in [1 << g for g in iter_bits(full)]:",
     ["tests/test_ideals.py::"
      "test_discrete_orders_list_every_subset_without_a_search"]),
    ("new-bit-subsets-last", "src/serrespec/ideals.py",
     "by_size[k] = [bit | s for s in by_size[k - 1]] + by_size[k]",
     "by_size[k] = by_size[k] + [bit | s for s in by_size[k - 1]]",
     ["tests/test_ideals.py::"
      "test_discrete_orders_list_the_subsets_of_a_gapped_mask"]),
    ("subset-key-set-bit-last", "src/serrespec/zring.py",
     "return mask.bit_count(), bin(mask)[:1:-1].translate(_SET_BITS_FIRST)",
     "return mask.bit_count(), bin(mask)[:1:-1]",
     ["tests/test_zring.py::"
      "test_subset_key_orders_by_cardinality_then_index_tuple"]),
    ("joined-halves-swapped", "src/serrespec/cli.py",
     "texts = {m: link[m & 255] + rests[m >> 8] if m >> 8 else end[m & 255]",
     "texts = {m: rests[m >> 8] + link[m & 255] if m >> 8 else end[m & 255]",
     ["tests/test_cli.py::test_mask_lists_over_seventy_names_render_as_json_dumps"]),
    ("doubling-puts-the-name-first", "src/serrespec/cli.py",
     "link += [t + name + sep for t in link]",
     "link += [name + t + sep for t in link]",
     ["tests/test_cli.py::test_large_levels_render_from_doubling_tables"]),
    ("empty-low-byte-links-with-a-separator", "src/serrespec/cli.py",
     "link[low] = body + sep if low else prefix",
     "link[low] = body + sep",
     ["tests/test_cli.py::"
      "test_every_one_and_two_bit_mask_renders_as_json_dumps"]),
    ("higher-part-before-the-low-piece", "src/serrespec/cli.py",
     "    pieces[::3] = [end[m] if m < 256 else link[m & 255] for m in masks]\n"
     "    pieces[1::3] = map(rests.__getitem__, highs)\n",
     "    pieces[1::3] = [end[m] if m < 256 else link[m & 255] for m in masks]\n"
     "    pieces[::3] = map(rests.__getitem__, highs)\n",
     ["tests/test_cli.py::"
      "test_every_one_and_two_bit_mask_renders_as_json_dumps"]),
    ("low-end-read-past-the-first-byte", "src/serrespec/cli.py",
     "[end[m] if m < 256 else link[m & 255] for m in masks]",
     "[end[m] if m < 256 else end[m & 255] for m in masks]",
     ["tests/test_cli.py::"
      "test_mask_lists_over_seventy_names_render_as_json_dumps"]),
    ("null-mask-left-to-the-pieces-path", "src/serrespec/cli.py",
     "except TypeError:  # a mask is None",
     "except KeyError:  # a mask is None",
     ["tests/test_cli.py::"
      "test_mask_lists_over_seventy_names_render_as_json_dumps"]),
    ("exclude-branch-forces-out-the-closure", "src/serrespec/ideals.py",
     "stack.append((inside, free & ~below[g]))",
     "stack.append((inside, free & ~closures[g]))",
     ["tests/test_ideals.py::test_down_sets_come_out_in_canonical_order"]),
    ("allow-flag-in-a-module-global", "src/serrespec/ideals.py",
     '_ALLOW_LARGE = ContextVar("serrespec_allow_large", default=False)',
     "class _Flag:\n"
     "    value = False\n"
     "    def get(self):\n"
     "        return self.value\n"
     "    def set(self, value):\n"
     "        old, self.value = self.value, value\n"
     "        return old\n"
     "    def reset(self, old):\n"
     "        self.value = old\n"
     "_ALLOW_LARGE = _Flag()",
     ["tests/test_ideals.py::test_allow_large_holds_in_its_block_and_context_only"]),
    ("pairs-inside-hits-keyed-by-i", "src/serrespec/ideals.py",
     "    for i in listed[1:]:\n"
     "        for j, hit in zip(listed, hits):\n"
     "            if not i & hit:\n",
     "    for i, hit in zip(listed[1:], hits[1:]):\n"
     "        for j in listed:\n"
     "            if not j & hit:\n",
     ["tests/test_ideals.py::test_pairs_inside_is_the_pair_scan_in_order"]),
    ("pairs-inside-reads-every-subset-first", "src/serrespec/ideals.py",
     "    subsets = iter(subsets)\n",
     "    subsets = iter(list(subsets))\n",
     ["tests/test_ideals.py::"
      "test_the_first_pair_comes_before_any_later_subset_is_read"]),
    ("columns-built-by-rows", "src/serrespec/zring.py",
     "out[b].append((a, pm[a][b]))",
     "out[a].append((b, pm[a][b]))",
     ["tests/test_ideals.py::test_pairs_inside_is_the_pair_scan_in_order"]),
    ("definitional-filter-keeps-ideals-meeting-p", "src/serrespec/spectrum.py",
     "map((~members).__and__, lattice)",
     "map(members.__and__, lattice)",
     ["tests/test_spectrum.py::test_fast_equals_definitional_everywhere"]),
    ("split-candidates-skip-the-next-ideal", "src/serrespec/spectrum.py",
     "after = dict(zip(masks, count(1)))",
     "after = dict(zip(masks, count(2)))",
     ["tests/test_spectrum.py::test_minimal_primes_chain_verified_everywhere"]),
    ("complements-not-scanned-for-primality", "src/serrespec/spectrum.py",
     "cached = tuple(m for m in lattice if m in prime)",
     "cached = tuple(m for m in lattice if m in first)",
     ["tests/test_spectrum.py::"
      "test_spec_primes_are_the_lattice_filtered_by_primality"]),
    ("semiprime-square-test-dropped", "src/serrespec/spectrum.py",
     "if not _square(ring, a) & ~members:",
     "if True:",
     ["tests/test_spectrum.py::test_semiprime_examples"]),
    ("fast-witness-over-singletons", "src/serrespec/spectrum.py",
     "principal = [closures[a] for a in outside]",
     "principal = [1 << a for a in outside]",
     ["tests/test_spectrum.py::test_prime_examples"]),
    ("squares-from-the-bare-product", "src/serrespec/spectrum.py",
     "square = squares[g] = product_support(ring, closure, closure)",
     "square = squares[g] = ring.product_masks[g][g]",
     ["tests/test_spectrum.py::"
      "test_two_step_supports_land_in_an_ideal_with_the_principal_product",
      "tests/test_spectrum.py::test_fast_equals_definitional_everywhere"]),
    ("producers-filed-under-the-left-factor", "src/serrespec/spectrum.py",
     "producers[h].append(pair)",
     "producers[a].append(pair)",
     ["tests/test_spectrum.py::"
      "test_producer_list_primes_equal_the_squares_test"]),
    ("frontier-round-skips-its-last-bit", "src/serrespec/ideals.py",
     "        while frontier:\n            low = frontier & -frontier\n",
     "        while frontier & (frontier - 1):\n"
     "            low = frontier & -frontier\n",
     ["tests/test_ideals.py::test_frontier_closures_equal_the_worklist"]),
    ("block-check-reads-no-output", "src/serrespec/zring.py",
     "                if blocks[g] != want:\n",
     "                if False:\n",
     ["tests/test_zring.py::"
      "test_block_violations_come_first_in_product_order"]),
    ("ring-accepts-field-assignment", "src/serrespec/zring.py",
     '        raise AttributeError(f"cannot assign to field {name!r}")',
     "        object.__setattr__(self, name, value)",
     ["tests/test_records.py::"
      "test_formerly_frozen_records_refuse_field_assignment"]),
    ("report-head-drops-the-ring", "src/serrespec/cli.py",
     'return code, {"command": args.command, "ring": ring.name, **fields}',
     'return code, {"command": args.command, **fields}',
     ["tests/test_cli.py::test_report_matches_golden"]),
    ("unit-composability-dropped", "src/serrespec/zring.py",
     "            if right[x] != left[y]:\n"
     "                return violations, frozenset()\n",
     "",
     ["tests/test_io.py::"
      "test_units_that_do_not_grade_the_table_leave_no_triple_unchecked"]),
    ("units-skipped-despite-a-failed-unit-axiom", "src/serrespec/zring.py",
     "    if violations:\n        return violations, frozenset()\n",
     "",
     ["tests/test_zring.py::"
      "test_unit_triples_are_skipped_only_where_they_associate"]),
    ("units-graded-by-the-right-units", "src/serrespec/zring.py",
     "left = [found[0][0] for found in lefts]",
     "left = [found[0][0] for found in rights]",
     ["tests/test_zring.py::test_every_unit_base_skips_its_unit_triples"]),
    ("truncation-prefix-one-degree-short", "src/serrespec/monomial.py",
     "vecs[:upto[degree - sum(a) + 1]]",
     "vecs[:upto[degree - sum(a)]]",
     ["tests/test_monomial.py::test_truncation_equals_the_label_keyed_build"]),
    ("first-difference-at-the-greatest-key", "src/serrespec/zring.py",
     "first = min(lhs.items() ^ rhs.items())[0][0]",
     "first = max(lhs.items() ^ rhs.items())[0][0]",
     ["tests/test_io.py::"
      "test_failing_file_lists_each_hint_once_in_first_seen_order"]),
    ("negative-constant-accepted", "src/serrespec/zring.py",
     "            if not c.is_nonnegative():\n"
     "                raise RingError(\n"
     '                    f"structure constant for ({a}, {b}) -> {g} must be "\n'
     '                    f"nonnegative, got {c}")\n',
     "",
     ["tests/test_zring.py::test_negative_constant_rejected"]),
    ("left-default-from-the-source-object", "src/serrespec/io.py",
     "pairs = [(u, g) for u in acting.get(dst, ())]",
     "pairs = [(u, g) for u in acting.get(src, ())]",
     ["tests/test_io.py::test_unit_defaults_equal_the_looped_oracle"]),
    ("zero-line-defaulted", "src/serrespec/io.py",
     "            if pair not in written:\n",
     "            if pair not in rows:\n",
     ["tests/test_io.py::test_a_unit_product_written_zero_stays_zero"]),
    ("repeated-labels-assembled", "src/serrespec/zring.py",
     "    _require_distinct(labels, name)\n"
     "    if units is not None and not units:\n",
     "    if units is not None and not units:\n",
     ["tests/test_io.py::"
      "test_repeated_basis_labels_in_a_file_fail_validation"]),
)


def stale_reason(root, mutant):
    """Why the mutant no longer applies to the tree at root, or None."""
    _, path, snippet, _, node_ids = mutant
    count = (root / path).read_text().count(snippet)
    if count != 1:
        return f"snippet occurs {count} times in {path}"
    for node_id in node_ids:
        test_path, _, function = node_id.partition("::")
        function = function.partition("[")[0]
        if f"def {function}(" not in (root / test_path).read_text():
            return f"no test {node_id}"
    return None


def _copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(tree, node_ids):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest could not run {node_ids}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def run(mutant):
    """'killed', 'survived' or 'stale: <reason>' for one mutant."""
    reason = stale_reason(ROOT, mutant)
    if reason:
        return f"stale: {reason}"
    _, path, snippet, replacement, node_ids = mutant
    with tempfile.TemporaryDirectory(prefix="serrespec-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if not _tests_pass(tree, node_ids):
            sys.exit(f"{node_ids} fail before any mutation")
        target = tree / path
        target.write_text(target.read_text().replace(snippet, replacement))
        return "survived" if _tests_pass(tree, node_ids) else "killed"


def main():
    ok = True
    for mutant in MUTANTS:
        result = run(mutant)
        ok &= result == "killed"
        print(f"{result:10} {mutant[0]}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
