"""The library surface stays as audited: each module of the package defines
exactly the public top-level names listed here.  A public name earns its place
through a caller outside the tests (a CLI command, the benchmark under
perfbench/) or a claim of the paper that its module docstring names; a helper
that only tests call lives under tests/."""

import ast
import dataclasses
import glob
import inspect
import os

import pytest

from flagcr import classify, cli, cralg, gaussq, intlat, presets, rootsys, weyl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "flagcr")

PUBLIC = {
    "__init__": set(),
    "__main__": set(),
    "classify": {
        "AnchorViolation", "CatalogClaimFailed", "CatalogEntry", "EnumClass", "GradingTable",
        "H", "KNOWN_DISCREPANCIES", "XI", "b3_counterexample", "beta0", "bn_constraint_discrepancy",
        "catalog", "construct_q", "e8_example_set", "e8_examples", "enumerate_maximal",
        "f4_counterexample", "grading_level_set", "grading_table", "MassIdentityViolation", "maximal_cliques",
        "maximal_symmetric_classes", "orbit_lemma_expected", "printed_orbit_61", "q_prime_p", "s_part_orbits", "spin",
        "SECTIONS", "subset_universe", "verify_grading", "verify_paper",
    },
    "cli": {"SystemExit2", "cmd_check", "cmd_cralg", "cmd_enumerate", "cmd_realform", "cmd_verify_paper", "main"},
    "cralg": {
        "CRAlgebra", "LieAlgebraPresentation", "NonExactExponential", "NotADerivation", "NotAHomomorphism",
        "NotAnAutomorphism", "NotAnIdeal", "NotCharacteristic", "PreconditionViolation", "anticanonical",
        "bracket_spaces", "check_cr_symmetric", "check_j_property", "check_weak_j", "closure_extension",
        "conj_space", "cr_dim_codim", "cspan", "exact_exponential", "fibration_compatible", "full_space",
        "ideal_closure", "induced_base_fiber", "is_characteristic", "is_effective", "is_fundamental_cr",
        "is_levi_nondegenerate", "is_subalgebra", "largest_ideal_in", "morphism_classify", "real_points",
        "scalar_levi_form", "sub_presentation", "vector_levi_form", "weak_j_implies_compatible",
    },
    "gaussq": {
        "CMatrix", "CNum", "C_I", "C_ONE", "C_ZERO", "Factored", "RMatrix", "complexify_vector", "kernel",
        "realify_vector", "solve_linear",
    },
    "intlat": {
        "DiophantineSolution", "SNFSolver", "column_solver", "hermite_basis", "identity_matrix",
        "lattice_coset_gcd", "mat_vec", "smith_normal_form", "solve_congruence", "solve_diophantine",
    },
    "presets": {
        "FLAG_TYPES", "FlagPreset", "PRESET_BUILDERS", "exam_bf", "flag_preset", "get_preset", "heisenberg", "sl2",
        "su2", "su2_flag",
    },
    "qsets": {
        "DegreeCoset", "HierarchyViolation", "MethodDisagreement", "NOT_FUNDAMENTAL", "NotFundamental",
        "PropertyReport", "compat_graph", "compatible", "degree_set", "has_j", "has_weak_j", "is_closed",
        "is_fundamental", "is_lb", "is_symmetric", "kernel_degree_gcd", "property_report", "q_star_11",
    },
    "realform": {
        "NoRegularVector", "RootConjugation", "a_reverse_conjugation", "adapted_simple_system", "check_eq_ha",
        "compact_conjugation", "conjugation_from_matrix", "regular_max_structure", "split_r_n", "verify_lemma_lb",
    },
    "rootsys": {
        "FIXED_RANK", "GradingElement", "InvalidRank", "RootSystem", "TYPES", "build_root_system",
        "coweight_lattice_basis", "dot", "evaluate", "evaluate_int", "find_root", "root_sum", "roots_set",
        "root_system_of_rank", "rootset_from_json", "rootset_to_json", "scaled", "sorted_indices",
    },
    "weyl": {
        "BUDGET", "BudgetExceeded", "CountedForm", "canonical_form", "cartan_matrix", "counted_form",
        "diagram_automorphisms", "generators", "in_weyl", "positive_roots", "reflection_perm", "root_orbit",
        "set_orbit", "sets_equivalent", "simple_coordinates", "simple_roots",
    },
}


def _bound(target):
    """Names bound by an assignment target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound(elt)


def _defined(body):
    """Names that module-level statements define, through if/try blocks too;
    imports define none."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _bound(target)
        elif isinstance(node, ast.AnnAssign):
            yield from _bound(node.target)
        elif isinstance(node, ast.If):
            yield from _defined(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _defined(node.body + node.orelse + node.finalbody + [s for h in node.handlers for s in h.body])


def public_names(path) -> set[str]:
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    return {name for name in _defined(tree.body) if not name.startswith("_")}


MODULES = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py")))


def test_every_module_is_listed():
    assert MODULES == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_public_names_are_listed(module):
    got = public_names(os.path.join(SRC, module + ".py"))
    want = PUBLIC.get(module, set())
    assert not got - want, f"{module} defines unlisted public names: {sorted(got - want)}"
    assert not want - got, f"{module} no longer defines listed names: {sorted(want - got)}"


# The parameters of intlat's and gaussq's public functions and the fields of
# a grading element, so that a dropped knob or field does not come back
# unnoticed; the solvers over Z and over a field all take a matrix by its
# columns and their height.
INTLAT_PARAMETERS = {
    "column_solver": ("columns", "n"),
    "hermite_basis": ("vectors",),
    "identity_matrix": ("n",),
    "lattice_coset_gcd": ("vectors",),
    "mat_vec": ("a", "v"),
    "smith_normal_form": ("m",),
    "solve_congruence": ("a", "b", "m"),
    "solve_diophantine": ("a", "b"),
}
GAUSSQ_PARAMETERS = {
    "complexify_vector": ("v",),
    "kernel": ("columns", "n", "coerce"),
    "realify_vector": ("v",),
    "solve_linear": ("columns", "rhs", "coerce"),
}


def _parameters(module):
    return {
        name: tuple(inspect.signature(fn).parameters)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def test_intlat_parameters_are_pinned():
    assert _parameters(intlat) == INTLAT_PARAMETERS


def test_gaussq_parameters_are_pinned():
    assert _parameters(gaussq) == GAUSSQ_PARAMETERS
    assert tuple(inspect.signature(gaussq.Factored).parameters) == ("columns", "n", "coerce")


def test_grading_element_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(rootsys.GradingElement)) == ("coords", "num", "den")


# The parameters, with their defaults, of the searches that take a budget
# and of weak_j_implies_compatible, and the preset names, so that a dropped
# option or alias does not come back unnoticed.
EMPTY = inspect.Parameter.empty
SEARCH = {"r": EMPTY, "q": EMPTY, "group": "weyl", "budget": weyl.BUDGET}
OPTION_PARAMETERS = {
    weyl.counted_form: SEARCH,
    weyl.canonical_form: SEARCH,
    weyl.set_orbit: SEARCH,
    classify.enumerate_maximal: {"r": EMPTY, "quotient": "weyl", "budget": weyl.BUDGET},
    cralg.weak_j_implies_compatible: {"a": EMPTY, "ideal": EMPTY, "upsilon": EMPTY},
}


def test_option_parameters_are_pinned():
    for fn, want in OPTION_PARAMETERS.items():
        got = {name: p.default for name, p in inspect.signature(fn).parameters.items()}
        assert got == want, fn.__qualname__


def test_every_budget_default_is_the_one_constant():
    # the budget is written once: each default is weyl.BUDGET itself, and so
    # is the default of enumerate --budget
    searches = [weyl.counted_form, weyl.canonical_form, weyl.set_orbit, classify.enumerate_maximal,
                classify.maximal_cliques]
    assert all(inspect.signature(fn).parameters["budget"].default is weyl.BUDGET for fn in searches)
    assert cli._parser().parse_args(["enumerate", "--type", "G2"]).budget is weyl.BUDGET


def test_preset_names_are_pinned():
    assert list(presets.PRESET_BUILDERS) == ["heisenberg", "sl2", "su2-flag", "exam-bf"]
