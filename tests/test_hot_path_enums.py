"""Guard: the per-cycle and per-op functions of the stepping path neither
load an enum member through its class nor hash one as a dict key.

Loading ``Opcode.ADD`` walks the enum class (about ten times the cost of
a module global), and hashing a member runs the Python-level
``Enum.__hash__``. The stepping path therefore reads members hoisted to
module globals and indexes plain lists and tuples by member attributes
(``kind.index``, ``action.severity``). The check parses the sources, so
a regression fails here instead of showing up as a slower benchmark.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ENUMS = {"OpState", "Opcode", "OpClass", "CheckAction", "CheckKind",
         "ForwardStatus"}
#: Attributes that hold an enum member wherever the stepping path reads
#: them (``op.state``, ``inst.opcode``, ``result.action``, ...).
ENUM_ATTRS = {"state", "opcode", "op_class", "action", "kind"}

#: module → class → the functions that run per cycle, per op or per check.
HOT = {
    "pipeline/core.py": {"PipelineCore": [
        "_commit_stage", "_commit_check", "_commit_op", "_complete_stage",
        "_bounce", "_try_complete", "_complete_load", "_complete_branch",
        "_screen", "_screen_completion", "_issue_stage",
        "_load_issue_latency", "_dispatch_stage", "_fetch_stage",
        "_fetch_thread"]},
    "pipeline/issue_queue.py": {"IssueQueue": ["insert", "remove"]},
    "pipeline/lsq.py": {"LoadStoreQueue": [
        "forward_value", "violating_loads"]},
    "pipeline/uops.py": {"MicroOp": ["__init__", "clone"]},
    # the issue stage claims units by pool index (in _issue_stage); the
    # per-cycle renewal is the units' own hot function
    "pipeline/func_units.py": {"FunctionalUnits": ["new_cycle"]},
    # the golden interpreter: repro verify, SRT lengths, branch oracles
    "isa/interpreter.py": {"Interpreter": ["step", "run_traced"]},
    "core/tcam.py": {"TCAM": ["lookup"]},
    "core/actions.py": {"CheckResult": ["of", "none"]},
    "core/screening.py": {
        "ScreeningUnit": ["_record"],
        "NullScreeningUnit": ["check_at_complete", "check_at_commit"]},
    "core/pbfs.py": {"PBFSUnit": ["check_at_complete", "check_at_commit"]},
    "core/faulthound.py": {"FaultHoundUnit": [
        "check_at_complete", "check_at_commit", "_domain", "_first_level",
        "_arbitrate"]},
}


def _enum_globals(tree: ast.Module) -> set:
    """Module globals bound to an enum member (``_WAITING = OpState.X``)."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ENUMS):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def _enum_params(func: ast.FunctionDef) -> set:
    """Parameters annotated with an enum type (``kind: CheckKind``)."""
    args = func.args.args + func.args.kwonlyargs
    return {a.arg for a in args if isinstance(a.annotation, ast.Name)
            and a.annotation.id in ENUMS}


def violations(func: ast.FunctionDef, enum_globals: set) -> list:
    """Every enum-through-class load and enum-keyed lookup in *func*."""
    enum_names = enum_globals | _enum_params(func)

    def is_enum(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in enum_names
        if isinstance(expr, ast.Attribute):
            return (expr.attr in ENUM_ATTRS
                    or isinstance(expr.value, ast.Name)
                    and expr.value.id in ENUMS)
        if isinstance(expr, ast.Tuple):
            return any(is_enum(elt) for elt in expr.elts)
        return False

    found = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ENUMS):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Subscript) and is_enum(node.slice):
            found.append(f"line {node.lineno}: subscript by an enum")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "pop", "setdefault",
                                     "__getitem__")
              and node.args and is_enum(node.args[0])):
            found.append(f"line {node.lineno}: .{node.func.attr}() "
                         f"by an enum")
        elif (isinstance(node, ast.Compare) and is_enum(node.left)
              and any(isinstance(op, (ast.In, ast.NotIn))
                      and not isinstance(right, (ast.Tuple, ast.List))
                      for op, right in zip(node.ops, node.comparators))):
            found.append(f"line {node.lineno}: hashed membership test")
    return found


def _hot_functions():
    for module, classes in HOT.items():
        for cls, funcs in classes.items():
            for func in funcs:
                yield module, cls, func


@pytest.mark.parametrize("module,cls,func", list(_hot_functions()),
                         ids=lambda part: part)
def test_hot_function_has_no_enum_lookups(module, cls, func):
    tree = ast.parse((SRC / module).read_text())
    class_node = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == cls)
    func_node = next((node for node in class_node.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == func), None)
    assert func_node is not None, f"{cls}.{func} is gone from {module}"
    assert violations(func_node, _enum_globals(tree)) == []


@pytest.mark.parametrize("source", [
    "def f(op):\n    return op.state is OpState.WAITING\n",
    "def f(table, kind: CheckKind):\n    return table[kind]\n",
    "def f(counts, result):\n    counts[result.action] += 1\n",
    "def f(table, a, k):\n    return table[a.action, k.kind, True]\n",
    "def f(severity, action):\n    return severity.get(_NONE)\n",
    "def f(op):\n    return op.opcode in _BRANCHES\n",
])
def test_guard_catches_the_patterns_it_forbids(source):
    tree = ast.parse("_NONE = CheckAction.NONE\n" + source)
    assert violations(tree.body[1], _enum_globals(tree))


def test_guard_allows_hoisted_members_and_identity_tests():
    source = ("_WAITING = OpState.WAITING\n"
              "def f(op, table, kind):\n"
              "    if op.state is _WAITING and op.opcode in (_A, _B):\n"
              "        return table[kind.index]\n")
    tree = ast.parse(source)
    assert violations(tree.body[1], _enum_globals(tree)) == []
