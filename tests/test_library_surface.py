"""The library surface: every public name of src/orbicurves is reached
from src/ itself, or is kept on purpose.

A public name is a module-level function or class, or a method of a
public class, whose name does not start with an underscore.  It is
reached when some Name, Attribute or import alias anywhere in
src/orbicurves spells it.  The walk matches bare names, so a method is
reached by any attribute of its name; it errs towards keeping a name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbicurves"

# public names that no code in src/ reaches, each with why it stays
KEEP = {
    "chern_index.chern_split": "paper content: acceptance 8 checks the Chern splitting",
    "surface.tangent_c1": "paper content: acceptance 8 checks chern_split against it",
    "germ.germ_from_polynomials": "the README quick start builds its germs with it",
    "germ.PowerSeries.scale": "bench/tracer.py patches it by name",
    "germ.PowerSeries.nth_root_of_unit_series": "bench/tracer.py patches it by name",
}


def unreached_names(package: Path) -> list[str]:
    """The public names defined in package/*.py that no Name, Attribute
    or import alias there spells, as "module.name" or
    "module.Class.method", in file order."""
    referenced, defined = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update((node.name.rpartition(".")[2], node.asname))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    ]
    return [qualified for qualified, name in defined if name not in referenced]


class TestLibrarySurface:
    def test_every_public_name_is_reached_or_kept(self):
        # a name on KEEP that src/ comes to reach, or that is deleted,
        # leaves KEEP too
        assert sorted(unreached_names(SRC)) == sorted(KEEP)

    def test_the_walk_sees_an_unreached_name(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "from .b import used as alias\n"
            "def used(): pass\n"
            "def unused(): alias()\n"
            "def _private(): pass\n"
            "class Thing:\n"
            "    def method(self): return self.other()\n"
            "    def other(self): pass\n"
            "    def __eq__(self, other): pass\n",
            encoding="utf-8",
        )
        (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
        assert unreached_names(tmp_path) == ["a.unused", "a.Thing", "a.Thing.method"]
