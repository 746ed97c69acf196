"""Replayable mutation checks: each row is a mutation of ``src/`` that
CHANGES.md records as failing some tier-1 tests, and the test of a row
makes that mutation in a copy of the project and runs those tests there.
The project is copied once for all rows, and each row's file is restored
after its run.  Only the tests, which no row changes, keep bytecode: no
run writes any, so a mutation that keeps the file's size, such as ``==``
to ``!=``, is never read from a stale ``.pyc``.

A row is ``(file, old text, new text, tests, PR)``.  The old text must
occur exactly once in the file; the named tests, given as pytest node
ids relative to the project root, must each fail or error on the mutated
copy.  A row whose old text is gone, or whose test is gone, fails: rewrite
the row against today's code rather than dropping it.

Not collected by tier-1 (``testpaths`` names ``tests`` and ``src``); run
with::

    python -m pytest mutants -q
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLI = "src/squaretiled/cli.py"
CYLINDERS = "src/squaretiled/cylinders.py"
MONODROMY = "src/squaretiled/monodromy.py"
PIPELINE = "src/squaretiled/pipeline.py"
SURFACE = "src/squaretiled/surface.py"
TRANSVERSE = "src/squaretiled/transverse.py"

ROWS = [
    # a file of five origami lines read as one
    (CLI, "if len(lines) > 1:", "if len(lines) > 5:",
     ["tests/test_pipeline.py::test_cli_rejects_a_second_origami_line"],
     45),
    # the bottom permutation beta reversed
    (PIPELINE, "w[1:] + w[:1]]", "w[-1:] + w[:-1]]",
     ["tests/test_pipeline.py::"
      "test_gluings_are_the_filtered_permutations_in_order[H2,1,1-case6]",
      "tests/test_pipeline.py::test_case6_catalog_entry_is_the_reference_"
      "diagram",
      "tests/test_pipeline.py::test_catalog_text_is_pinned"],
     45),
    # a corner cycle of a length no longer needed closes anyway
    (PIPELINE, "if not need[size[b]]:", "if False:",
     ["tests/test_pipeline.py::test_catalog_counts",
      "tests/test_pipeline.py::test_catalog_matches_the_oracle[H2,1,1]",
      "tests/test_pipeline.py::"
      "test_gluings_are_the_filtered_permutations_in_order[H1,1]"],
     45),
    # the wrap-around adjacency of each top word never checked
    (PIPELINE, "        due[-1].append((len(images) - 1, cuts[-1]))\n", "",
     ["tests/test_pipeline.py::"
      "test_gluings_are_the_filtered_permutations_in_order[H2,1,1-case6]",
      "tests/test_pipeline.py::test_catalog_decomposes_and_keys_each_diagram"
      "_once[H2,1,1-case6]",
      "tests/test_pipeline.py::test_catalog_text_is_pinned"],
     45),
    # the rotation filter tries no rotation
    (PIPELINE, "range(1, len(w))", "range(1, 1)",
     ["tests/test_pipeline.py::test_catalog_decomposes_and_keys_each_diagram"
      "_once[H1,1,1,1-one_cylinder]",
      "tests/test_pipeline.py::"
      "test_one_cylinder_catalog_matches_brute_force[H4]",
      "tests/test_pipeline.py::test_catalog_text_is_pinned"],
     45),
    # a zero counted on every bottom that meets it
    (CYLINDERS, "        zeros = 0\n",
     "        zeros = 0\n        met = [False] * n\n",
     ["tests/test_cylinders.py::"
      "test_one_pass_matches_the_oracle_in_every_genus",
      "tests/test_cylinders.py::test_decomposition_matches_the_oracle",
      "tests/test_cylinders.py::test_exemplar_case_labels[Case1-Case1]"],
     46),
    # the corner-cycle walk stops one corner early
    (CYLINDERS, "while not met[u]:", "while not met[corner[u]]:",
     ["tests/test_cylinders.py::"
      "test_one_pass_matches_the_oracle_in_every_genus",
      "tests/test_cylinders.py::test_wollmilchsau_slope_one_is_case6",
      "tests/test_pipeline.py::test_reference_surface_survives"],
     46),
    (CYLINDERS, "        marked[0] = True   # genus one: no cone point\n",
     "        pass\n",
     ["tests/test_cylinders.py::"
      "test_one_pass_matches_the_oracle_in_every_genus",
      "tests/test_cylinders.py::test_simple_decompositions",
      "tests/test_monodromy.py::test_upper_bound_needs_higher_genus"],
     46),
    (TRANSVERSE, "sum(d.heights[c] for c in crossed)",
     "d.heights[crossed[0]]",
     ["tests/test_transverse.py::test_exemplar_witnesses[Case4B]"],
     46),
    (TRANSVERSE, "d.top_positions[sid] - bp", "bp - d.top_positions[sid]",
     ["tests/test_transverse.py::test_exemplar_witnesses[Case1]",
      "tests/test_transverse.py::test_exemplar_witnesses[Case4B]"],
     46),
    # the length check of CylinderDiagram.validate dropped
    (CYLINDERS,
     "        if len(self.bottom_words) != len(self.top_words):\n"
     "            raise InvariantViolation(\"bottom and top words number "
     "different \"\n"
     "                                     \"cylinders\")\n",
     "",
     ["tests/test_cylinders.py::test_malformed_diagrams_raise"],
     47),
    # top_positions filled by cylinder instead of by saddle
    (CYLINDERS, "                top_positions[sid] = x",
     "                top_positions[cid] = x",
     ["tests/test_cylinders.py::test_decomposition_matches_the_oracle",
      "tests/test_cylinders.py::"
      "test_one_pass_matches_the_oracle_in_every_genus",
      "tests/test_pipeline.py::test_reference_surface_survives"],
     47),
    (SURFACE, "    if n > 1 and len(squares) < n:", "    if False:",
     ["tests/test_surface.py::"
      "test_isolated_squares_raise_before_any_permutation_is_built",
      "tests/test_pipeline.py::"
      "test_cli_reports_an_isolated_square_in_one_line"],
     47),
    (SURFACE, "    if n > 1 and len(squares) < n:",
     "    if n > 0 and len(squares) < n:",
     ["tests/test_surface.py::test_malformed_cycles_raise_value_error",
      "tests/test_pipeline.py::test_genus_gate"],
     47),
    (PIPELINE, "for tp, bp in zip(d.top_positions, d.bottom_positions)",
     "for tp, bp in zip(d.top_positions, "
     "d.bottom_positions[1:] + d.bottom_positions[:1])",
     ["tests/test_pipeline.py::test_case5_defers_to_its_simple_cylinder",
      "tests/test_pipeline.py::test_census_up_to_seven_squares"],
     47),
    (TRANSVERSE, "c2 = next(c for c, top in enumerate(tops) if sigma in top)",
     "c2 = next(c for c, top in enumerate(tops) if sigma not in top)",
     ["tests/test_transverse.py::test_exemplar_witnesses[Case2]",
      "tests/test_pipeline.py::test_exemplars_have_trivial_subspaces[Case2]"],
     47),
    (PIPELINE, "    scale = 40\n", "    scale = 41\n",
     ["tests/test_pipeline.py::test_render_svg_reports"],
     47),
    (PIPELINE, "    scale = 60\n", "    scale = 61\n",
     ["tests/test_pipeline.py::test_render_svg_reports"],
     47),
    (PIPELINE, "% (cid, *words))", "% (cid, *words[::-1]))",
     ["tests/test_pipeline.py::test_catalog_text_is_pinned",
      "tests/test_pipeline.py::"
      "test_catalogs_build_no_origami_and_decompose_nothing"],
     47),
    # the Case 4 label misspelt in _CASE_SIGNATURES
    (CYLINDERS, '): "Case4",', '): "Case 4",',
     ["tests/test_cylinders.py::test_exemplar_case_labels[Case4A-Case4]",
      "tests/test_cylinders.py::test_pinch_shape_table_is_complete",
      "tests/test_pipeline.py::"
      "test_verdict_text_names_the_deferral_and_the_certificate",
      "tests/test_transverse.py::test_exemplar_witnesses[Case4A]"],
     49),
    # the genus labels alone, without the cycle rank; this also stands for
    # PR 46's row on the genus formula of the one-pass decomposition,
    # which PR 49 replaced by this sum
    (CYLINDERS, "sum(self.genera) + self.cycle_rank", "sum(self.genera)",
     ["tests/test_cylinders.py::"
      "test_one_pass_matches_the_oracle_in_every_genus",
      "tests/test_homology.py::test_dual_graph_shapes",
      "tests/test_pipeline.py::test_genus_gate",
      "tests/test_monodromy.py::test_wollmilchsau_upper_bound"],
     49),
    # "Case4" dropped from the crossing-cylinder labels of
    # _analyze_direction
    (PIPELINE, 'if label in ("Case1", "Case2", "Case4"):',
     'if label in ("Case1", "Case2"):',
     ["tests/test_pipeline.py::test_exemplars_have_trivial_subspaces[Case4A]",
      "tests/test_pipeline.py::"
      "test_verdict_text_names_the_deferral_and_the_certificate",
      "tests/test_jump.py::test_forcing_evidence_is_frozen"],
     49),
    (PIPELINE, "if graph.cycle_rank == graph.genus:",
     "if graph.cycle_rank == 3:",
     ["tests/test_pipeline.py::test_lagrangian_rule_needs_the_full_genus",
      "tests/test_pipeline.py::"
      "test_direction_record_is_invariant_under_relabelling"],
     49),
    (MONODROMY, "genus = decomposition.dual_graph.genus",
     "genus = sum(decomposition.dual_graph.genera)",
     ["tests/test_monodromy.py::test_wollmilchsau_upper_bound",
      "tests/test_monodromy.py::"
      "test_nine_square_bound_stops_at_the_first_rank_g_cusp",
      "tests/test_pipeline.py::test_cli_monodromy"],
     49),
    # the classify_case message prints the arithmetic genus
    (CYLINDERS, "sum(g.genera))) from None", "g.genus)) from None",
     ["tests/test_cylinders.py::test_genus_two_graphs_match_no_case",
      "tests/test_cylinders.py::test_pinch_shape_table_is_complete",
      "tests/test_pipeline.py::test_lagrangian_rule_needs_the_full_genus"],
     49),
    # the Case 2 witness read at the last saddle of cylinder 0's bottom
    (TRANSVERSE, "sigma = bottoms[0][0]", "sigma = bottoms[0][-1]",
     ["tests/test_transverse.py::test_exemplar_witnesses[Case2]",
      "tests/test_transverse.py::test_decomposition_and_net_witnesses_agree"],
     50),
    # a first saddle on cylinder 0's own top no longer raises
    (TRANSVERSE, "if c2 == 0 or not shared:", "if not shared:",
     ["tests/test_pipeline.py::"
      "test_witness_searches_raise_without_a_witness"],
     50),
    # back through the shortest shared saddle
    (TRANSVERSE, "tau = max(", "tau = min(",
     ["tests/test_transverse.py::test_decomposition_and_net_witnesses_agree"],
     50),
    # a band as wide as sigma, whatever tau's length
    (TRANSVERSE, "bp + min(lengths[sigma], lengths[tau])",
     "bp + lengths[sigma]",
     ["tests/test_transverse.py::test_decomposition_and_net_witnesses_agree"],
     50),
    # the bottom-swap clause of enumerate_diagrams' filter dropped
    (PIPELINE,
     "(len(set(map(len, words))) == 1 and words[::-1] < words)", "False",
     ["tests/test_pipeline.py::"
      "test_catalog_skips_a_list_that_swapping_equal_bottoms_makes_smaller"],
     50),
    # a cylinder's height read as its circumference
    (CYLINDERS, "heights.append(len(stacked))", "heights.append(len(row))",
     ["tests/test_cylinders.py::test_wollmilchsau_horizontal_decomposition",
      "tests/test_cylinders.py::test_moduli_exponents",
      "tests/test_pipeline.py::test_reference_surface_survives"],
     51),
    # the rotation clause of enumerate_diagrams' filter never fires
    (PIPELINE, "tuple((x - w[s]) % len(w) for x in w[s:] + w[:s]) < w",
     "False",
     ["tests/test_pipeline.py::test_catalog_decomposes_and_keys_each_diagram"
      "_once[H1,1,1,1-one_cylinder]",
      "tests/test_pipeline.py::test_catalog_matches_the_oracle[H2,1,1]",
      "tests/test_pipeline.py::test_catalog_text_is_pinned"],
     51),
    # the three mutants of _saddle_arc that passed all of tier-1 before
    (TRANSVERSE, "len(idx) == k:", "len(idx) != k:",
     ["tests/test_transverse.py::test_saddle_arc_reads_the_start_of_the_run"],
     51),
    (TRANSVERSE, "(start + t) % k", "(start - t) % k",
     ["tests/test_transverse.py::test_saddle_arc_reads_the_start_of_the_run"],
     51),
    (TRANSVERSE, "(start - 1) % k", "(start + 1) % k",
     ["tests/test_transverse.py::test_saddle_arc_reads_the_start_of_the_run"],
     51),
    # zero orders of odd sum accepted, and given the genus (sum + 2) // 2
    (SURFACE, "if sum(self.kappa) % 2:", "if False:",
     ["tests/test_records.py::"
      "test_validated_records_reject_bad_fields_on_every_path",
      "tests/test_pipeline.py::test_catalog_rejects_bad_input"],
     52),
    # an empty start interval accepted
    (TRANSVERSE, "if not lo < hi:", "if not lo <= hi:",
     ["tests/test_transverse.py::"
      "test_malformed_witness_raises[crossed0-0-positive width]",
      "tests/test_records.py::"
      "test_validated_records_reject_bad_fields_on_every_path",
      "tests/test_pipeline.py::test_checks_survive_python_O"],
     52),
    # a window that violates an inequality read as consistent, and the
    # other way round; rewritten on the window's own violated inequalities
    (PIPELINE, "or chain.violated:", "or not chain.violated:",
     ["tests/test_pipeline.py::test_reference_surface_survives",
      "tests/test_pipeline.py::test_case6_nonreference_excluded_by_window",
      "tests/test_pipeline.py::test_exemplars_have_trivial_subspaces[Case6]"],
     52),
    # a survivor certified over a window that violates an inequality
    (PIPELINE, " and not window.violated", "",
     ["tests/test_pipeline.py::test_forged_survivor_verdict_raises",
      "tests/test_pipeline.py::test_checks_survive_python_O"],
     53),
    # a certificate whose saddle length is not the window's t0
    (PIPELINE, "if a == window.t0 and 0 <= t < a", "if 0 <= t < a",
     ["tests/test_pipeline.py::test_forged_survivor_verdict_raises",
      "tests/test_pipeline.py::test_checks_survive_python_O"],
     53),
    # the quarter bound made strict
    (TRANSVERSE, "4 * self.s0 < self.w", "4 * self.s0 <= self.w",
     ["tests/test_transverse.py::test_window_feasible_known_points",
      "tests/test_transverse.py::"
      "test_integer_window_inequalities_match_the_fraction_oracle",
      "tests/test_pipeline.py::test_reference_surface_survives"],
     53),
]


def row_id(row):
    path, _, _, _, pr = row
    return "PR%d-%s" % (pr, os.path.basename(path)[:-3])


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """One copy of the project for every row.  Collecting its tests once
    caches their bytecode, which no row changes; ``src`` keeps none and
    the rows write none, so a mutated module is compiled from its text."""
    root = tmp_path_factory.mktemp("project")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only",
         "-p", "no:cacheprovider", "tests"],
        cwd=root, env=env, capture_output=True, check=True, timeout=300)
    for cache in list((root / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    return root


@pytest.mark.parametrize("row", ROWS, ids=[
    "%s-%d" % (row_id(row), i) for i, row in enumerate(ROWS)])
def test_recorded_mutant_fails_its_tests(row, project):
    path, old, new, tests, pr = row
    assert path.startswith("src/"), "a row mutates src/, never the tests"
    target = project / path
    text = target.read_text(encoding="utf-8")
    count = text.count(old)
    assert count == 1, (
        "the old text of PR %d's row occurs %d times in %s: rewrite the "
        "row against today's code, do not drop it" % (pr, count, path))
    target.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(project / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *tests],
            cwd=project, env=env, capture_output=True, text=True,
            timeout=300)
    finally:
        target.write_text(text, encoding="utf-8")
    # exit code 1: the tests ran and some failed; a missing test or a
    # collection error gives another code
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
    reported = [line.split(" ", 1)[1] for line in run.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    survived = [test for test in tests if not any(
        line.startswith((test + " ", test + "[")) or line == test
        for line in reported)]
    assert not survived, "PR %d's mutant of %s passes %s" % (
        pr, path, survived)
