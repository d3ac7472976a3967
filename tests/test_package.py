import ast
import importlib
import re
from pathlib import Path

import spantree

# the package's exports before each module's __all__ became the one list
# of its public names; HARD_CAP and N_MAX were added then, and Formula and
# product_of_parts, then det_fraction_free, then the test-only identify and
# is_connected, then the test-only laplacian, tau_bruteforce, delete_edge
# and contract_edge and the distinctness check's certify_distinct and
# DistinctnessReport, removed later
EXPORTS = {
    "Estimate", "LhospitalReport", "check_lhospital", "cumulative_lower_bound",
    "hardy_ramanujan", "integral_target", "prime_main_term", "scaled_central_derivative",
    "AlphaRecord", "AtlasRecord", "LowerBoundReport", "alpha_exact", "atlas_filename",
    "azarija_skrekovski_bound", "exact_atlas", "load_atlas", "load_atlas_dir", "save_atlas",
    "sedlacek_bound", "verify_lower_bound",
    "EdgeListError", "Graph", "complete", "cycle", "format_edge_list", "parse_edge_list",
    "path",
    "PartClass", "Partition", "allowed_parts", "count_partitions", "count_partitions_up_to",
    "enumerate_partitions", "p_set_enumerate", "p_set_size", "primes_up_to",
    "tau",
    "Witness", "build_witness", "flower", "sidecar_json", "witness_family",
}

MODULES = ["asymptotics", "atlas", "graphs", "partitions", "spanning", "witness"]


def test_exports_are_the_module_lists_joined():
    lists = [importlib.import_module(f"spantree.{name}").__all__ for name in MODULES]
    assert spantree.__all__ == [name for names in lists for name in names]
    assert len(spantree.__all__) == len(set(spantree.__all__)) == 44
    assert set(spantree.__all__) == EXPORTS | {"HARD_CAP", "N_MAX"}


def test_each_export_is_its_modules_object():
    for module_name in MODULES:
        module = importlib.import_module(f"spantree.{module_name}")
        for name in module.__all__:
            assert getattr(spantree, name) is getattr(module, name)
            obj = getattr(module, name)
            if hasattr(obj, "__module__"):
                assert obj.__module__ == module.__name__, name


def test_readme_library_tour():
    """The README's library tour runs, and its expressions give the values
    its comments state."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)[1]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [125, 5]
    assert [w.tau_value for w in namespace["ws"]] == [3, 5, 9, 7, 15, 27, 21, 25]
    for comment in ("# 125,", "# 8 graphs, counts 3,5,9,7,15,27,21,25", "# 5:"):
        assert comment in block
