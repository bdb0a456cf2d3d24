"""Static checks on the package source, with the standard library's ``ast``."""

import ast
import os
import re

import quadsum
from code_lines import code_lines, main as print_line_counts

SRC = os.path.dirname(os.path.abspath(quadsum.__file__))


def unused_imports(text: str):
    """(line, name) of every name the module imports and never reads."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    text = ("import math\nimport os.path\nfrom fractions import Fraction as F\n"
            "from operator import mul, add\nfrom __future__ import annotations\n"
            "x = os.path.join(F(1), mul)\n")
    assert unused_imports(text) == [(1, "math"), (4, "add")]


def package_sources():
    """(file name, text) of every module of the package."""
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources.append((name, fh.read()))
    return sources


def test_no_unused_imports():
    """No module of the package imports a name it never uses; ``__init__``
    is skipped, because its imports are its exports."""
    found = [f"{name}:{line} {ident}" for name, text in package_sources()
             if name != "__init__.py" for line, ident in unused_imports(text)]
    assert found == []


def wrapped_then_unwrapped(text: str):
    """(line, what) of every ``.v`` read off a call of ``.element(...)``, which
    builds a wrapper only to unwrap it (``Field.value`` reads the raw value),
    and of every name of an intern table of prebuilt elements."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Attribute) and node.attr == "v"
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "element"):
            found.append((node.lineno, "element(...).v"))
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ("_interned", "_INTERN_CAP"):
            found.append((node.lineno, name))
    return sorted(found)


def test_wrapped_then_unwrapped_is_found():
    text = ("a = f.element(x).v\nb = f.value(x)\nc = f.element(x)\nd = c.v\n"
            "e = self._interned[v]\n_INTERN_CAP = 4096\n")
    assert wrapped_then_unwrapped(text) == [(1, "element(...).v"), (5, "_interned"),
                                            (6, "_INTERN_CAP")]


def test_no_scalar_is_wrapped_only_to_be_unwrapped():
    """Outside ``field.py`` no module reads ``.v`` off ``element(...)``, and
    no module keeps a table of prebuilt elements."""
    found = [f"{name}:{line} {what}" for name, text in package_sources()
             for line, what in wrapped_then_unwrapped(text)
             if name != "field.py" or what != "element(...).v"]
    assert found == []


def constant_reductions(text: str):
    """The line of every ``.reduce`` call on the literal int 0 or 1."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "reduce" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Constant)
                  and type(node.args[0].value) is int and node.args[0].value in (0, 1))


def test_constant_reductions_are_found():
    text = ("a = f.reduce(0)\nb = field.reduce(1)\nc = f.reduce(-1)\nd = f.reduce(x)\n"
            "e = functools.reduce(add, xs)\ng = f.reduce(True)\nh = [self.field.reduce(\n"
            "    1)]\n")
    assert constant_reductions(text) == [1, 2, 7]


def test_no_constant_is_reduced():
    """0 and 1 are canonical raw values in every field, the ints themselves:
    no module asks ``Field.reduce`` for them."""
    found = [f"{name}:{line}" for name, text in package_sources()
             for line in constant_reductions(text)]
    assert found == []


def loads(node):
    """Every name and attribute that the syntax tree ``node`` reads."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unread_definitions(sources, kinds, wanted, outside=frozenset()):
    """(module, name) of every top-level definition of one of ``kinds`` whose
    name satisfies ``wanted``, that no top-level statement of the (module,
    text) pairs in ``sources`` reads outside its own body and that is not in
    ``outside``.  A name that the reading module binds by an import from
    outside the package is not a read: ``gcd`` after ``from math import
    gcd`` is math's."""
    defined, read = [], set(outside)
    for module, text in sources:
        tree = ast.parse(text)
        foreign = foreign_imports(tree)
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, kinds) else None
            if own and wanted(own):
                defined.append((module, own))
            read |= loads(stmt) - {own} - foreign
    return [(module, name) for module, name in defined if name not in read]


def foreign_imports(tree):
    """Every name that the syntax tree binds by an absolute import of a
    module outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] != "quadsum"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] != "quadsum"):
            names |= {a.asname or a.name for a in node.names}
    return names


def orphaned_functions(sources):
    """(module, name) of every private top-level function that no other
    top-level statement of the (module, text) pairs in ``sources`` reads."""
    return unread_definitions(sources, ast.FunctionDef, lambda name: name.startswith("_"))


def test_orphaned_functions_are_found():
    first = "def _used():\n    pass\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
    second = "import first\n\ndef public():\n    return first._used()\n\ndef _alone():\n    pass\n"
    assert orphaned_functions([("first", first), ("second", second)]) == [
        ("first", "_orphan"), ("second", "_alone")]


def test_no_orphaned_private_functions():
    """Every private top-level function of the package is read somewhere in
    the package, outside its own body."""
    assert orphaned_functions(package_sources()) == []


def private_defaults(text: str):
    """(line, name) of every private function or method (a name starting
    with ``_``, dunders excluded) that declares a parameter default."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.endswith("__")
                  and (node.args.defaults or any(node.args.kw_defaults)))


def test_private_defaults_are_found():
    text = ("def _knob(a, b=None):\n    pass\n\ndef _kw(a, *, b=1):\n    pass\n\n"
            "def _plain(a, *, b):\n    pass\n\ndef public(a=0):\n    pass\n\n"
            "class C:\n    def __init__(self, a=0):\n        pass\n\n"
            "    def _method(self, a=0):\n        pass\n")
    assert private_defaults(text) == [(1, "_knob"), (4, "_kw"), (17, "_method")]


def test_no_private_function_has_a_default():
    """A private function is called only inside the package, so every caller
    can say what it passes: a default there is a knob that hides which
    callers take which path."""
    found = [f"{name}:{line} {ident}" for name, text in package_sources()
             for line, ident in private_defaults(text)]
    assert found == []


def unread_public(sources, outside):
    """(module, name) of every public top-level function and class of the
    (module, text) pairs in ``sources`` that none of them reads outside its
    own body and that is not in ``outside``."""
    return unread_definitions(sources, (ast.FunctionDef, ast.ClassDef),
                              lambda name: not name.startswith("_"), outside)


def markdown_code_names(text: str):
    """Every identifier in the inline code and the code blocks of a markdown text."""
    return set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]*)`+", text))))


def test_unread_public_definitions_are_found():
    first = ("def used():\n    pass\n\ndef alone(n):\n    return alone(n - 1)\n\n"
             "class Kept:\n    pass\n")
    second = "import first\n\ndef caller():\n    return first.used()\n\nclass Lonely:\n    pass\n"
    assert unread_public([("first", first), ("second", second)], {"Kept"}) == [
        ("first", "alone"), ("second", "caller"), ("second", "Lonely")]
    first = "def gcd(a, b):\n    pass\n\ndef used():\n    pass\n\ndef named():\n    pass\n"
    second = ("from math import gcd\nfrom .first import used\nfrom quadsum.first import named\n\n"
              "def _caller():\n    return gcd(4, 6), used(), named()\n")
    assert unread_public([("first", first), ("second", second)], set()) == [("first", "gcd")]
    assert markdown_code_names("Call `decide(m)`, then\n```python\nconstruct(m)\n```\nnot rank.") \
        == {"decide", "m", "python", "construct"}


def reader_sources():
    """(README text, syntax trees of ``perfbench/*.py`` and the acceptance
    tests): the readers outside the package that the reader rules accept."""
    root = os.path.dirname(os.path.dirname(SRC))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    bench = os.path.join(root, "perfbench")
    paths = [os.path.join(bench, name) for name in os.listdir(bench) if name.endswith(".py")]
    trees = []
    for path in paths + [os.path.join(os.path.dirname(__file__), "test_acceptance.py")]:
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read()))
    return readme, trees


def test_every_public_definition_has_a_reader():
    """Every public top-level function and class of the package is read in
    the package outside its own body, in the README's code, in the benchmark
    or in the acceptance tests, so an export that only other tests read does
    not come back."""
    readme, trees = reader_sources()
    outside = markdown_code_names(readme)
    for tree in trees:
        outside |= loads(tree)
    assert unread_public(package_sources(), outside) == []


def attribute_reads(tree, classes):
    """(owner, name, methods) of every attribute ``x.name`` that the syntax
    tree loads: owner is x when x is the bare name of one of ``classes``,
    else None, and methods the (class, method) definitions around it."""
    reads = []

    def visit(node, cls, methods):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and cls:
            methods = methods | {(cls, node.name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "id", None)
            reads.append((owner if owner in classes else None, node.attr, methods))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, methods)

    visit(tree, None, frozenset())
    return reads


def unread_methods(sources, trees, markdown):
    """(class, name) of every public method of a top-level class of the
    (module, text) pairs in ``sources`` that no tree of ``sources`` or of
    ``trees`` reads as an attribute outside its own body and that the code
    of the markdown text does not name; ``C.name`` with C one of those
    classes reads C's method only."""
    package = [ast.parse(text) for _, text in sources]
    defined = [(stmt.name, item.name) for tree in package for stmt in tree.body
               if isinstance(stmt, ast.ClassDef) for item in stmt.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not item.name.startswith("_")]
    classes = {cls for cls, _ in defined}
    code = " ".join(re.findall(r"`+([^`]*)`+", markdown))
    reads = [(owner if owner in classes else None, name, frozenset())
             for owner, name in re.findall(r"(?:(\w+)\.)?(\w+)", code)]
    for tree in package + list(trees):
        reads += attribute_reads(tree, classes)
    return [(cls, name) for cls, name in defined
            if not any(attr == name and owner in (None, cls) and (cls, name) not in methods
                       for owner, attr, methods in reads)]


def test_unread_methods_are_found():
    first = ("class A:\n    def used(self):\n        pass\n\n"
             "    def alone(self):\n        return self.alone()\n\n"
             "    def _private(self):\n        pass\n\n"
             "    def only_b(self):\n        pass\n\n"
             "    def in_readme(self):\n        pass\n\n"
             "class B:\n    @classmethod\n    def only_b(cls):\n        return cls.used\n")
    second = "import first\n\ndef caller(a):\n    return a.used(), first.B.x, B.only_b()\n"
    readme = "Call `A.in_readme()`, not `B.alone` or only_b."
    assert unread_methods([("first", first)], [ast.parse(second)], readme) == [
        ("A", "alone"), ("A", "only_b")]


def test_every_public_method_has_a_reader():
    """Every public method of a package class is read as an attribute in the
    package outside its own body, in the benchmark or in the acceptance
    tests, or is named in the README's code, so a method that only its own
    unit tests call does not come back.  A name that another reader also
    uses is not told apart here (``trace`` against ``args.trace``)."""
    readme, trees = reader_sources()
    assert unread_methods(package_sources(), trees, readme) == []


def json_writers(text: str):
    """(line, name) of every function or method whose name ends in ``to_json``."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.endswith("to_json"))


def test_json_writers_are_found():
    text = ("def matrix_to_json(m):\n    pass\n\ndef to_json(x):\n    pass\n\n"
            "def from_json(x):\n    pass\n\nclass R:\n    def to_json(self):\n        pass\n")
    assert json_writers(text) == [(1, "matrix_to_json"), (4, "to_json"), (11, "to_json")]


def test_only_serialize_writes_json():
    """One module turns results into JSON data: no module but
    ``serialize.py`` defines a function whose name ends in ``to_json``, and
    ``cli.py`` builds no payload: its only dict display is an argument of a
    ``serialize`` reader, and it assigns no item."""
    sources = package_sources()
    found = [f"{name}:{line} {ident}" for name, text in sources
             if name != "serialize.py" for line, ident in json_writers(text)]
    assert found == []
    nodes = list(ast.walk(ast.parse(dict(sources)["cli.py"])))
    read = {id(arg) for node in nodes if isinstance(node, ast.Call)
            and getattr(node.func, "attr", "").endswith("from_json") for arg in node.args}
    assert not [node.lineno for node in nodes
                if isinstance(node, (ast.Dict, ast.DictComp)) and id(node) not in read
                or isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript)]


#: How ``matrix.py`` holds a row in its kernels: the packing gate, how a
#: GF(p) row becomes one int and back, rational rows as integers over a
#: denominator, and the elimination steps on those rows.  Other modules pass
#: and get back raw canonical values only.
PACKING = {"_pack", "_residues", "_PackedColumns", "_MASK", "_packs", "_reduce", "_pivot",
           "_echelon", "_extend_echelon", "_integral"}


def packing_names(text: str):
    """(line, name) of every name of ``PACKING`` the module imports or reads."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in PACKING]
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in PACKING:
            found.append((node.lineno, name))
    return sorted(found)


def test_packing_names_are_found():
    text = ("from .matrix import _packs, _pack\nx = matrix._residues(p, r, 3)\n"
            "y = _PackedColumns(cols) if _packs(p, n, n) else cols\nz = r & _MASK\n"
            "from .matrix import _columns, _integral\nw = _reduce(row, ech, p, True)\n")
    assert packing_names(text) == [(1, "_pack"), (1, "_packs"), (2, "_residues"),
                                   (3, "_PackedColumns"), (3, "_packs"), (4, "_MASK"),
                                   (5, "_integral"), (6, "_reduce")]


def test_packed_rows_are_named_only_in_matrix():
    """Only ``matrix.py`` decides how a kernel holds a row: no other module
    calls the packing gate or the elimination steps, packs a row, reads one
    back, brings rational rows to integers or names the packed columns or
    the slot mask."""
    found = [f"{name}:{line} {what}" for name, text in package_sources()
             if name != "matrix.py" for line, what in packing_names(text)]
    assert found == []


def identity_calls(text: str):
    """The line of every call of ``Matrix.identity``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "identity" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "Matrix")


def test_identity_calls_are_found():
    text = ("a = m - lam * Matrix.identity(f, n)\nb = m._plus_identity(c)\n"
            "c = Matrix.identity\nd = x.identity(f, 2)\ne = 2 * Matrix.identity(\n    f, 3)\n")
    assert identity_calls(text) == [1, 5]


def test_no_identity_matrix_outside_matrix():
    """M + c I touches the n diagonal entries (``Matrix._plus_identity``):
    no module but ``matrix.py`` builds an identity matrix to add it."""
    found = [f"{name}:{line}" for name, text in package_sources()
             if name != "matrix.py" for line in identity_calls(text)]
    assert found == []


def number_readers(text: str):
    """(line, what) of every call of ``int``, ``float`` or ``Fraction`` and of
    every ``type=`` passed to ``add_argument``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in ("int", "float", "Fraction"):
                found.append((node.lineno, name))
            if name == "add_argument":
                found += [(node.lineno, "type=") for kw in node.keywords if kw.arg == "type"]
    return sorted(found)


def test_number_readers_are_found():
    text = ("a = int(x)\nb = fractions.Fraction(1, 2)\np.add_argument('--n', type=int)\n"
            "c = float\nd = serialize._integer(x, 'n')\np.add_argument('--m')\ne = float(y)\n")
    assert number_readers(text) == [(1, "int"), (2, "Fraction"), (3, "type="), (7, "float")]


def test_cli_reads_no_number():
    """``cli.py`` hands every number of the command line to ``serialize``,
    which reads them as it reads job files: no ``int``, ``float`` or
    ``Fraction`` call and no argparse ``type=`` reads one loosely."""
    assert number_readers(dict(package_sources())["cli.py"]) == []


def fraction_calls(text: str):
    """The line of every call of ``Fraction``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call)
                  and (node.func.id if isinstance(node.func, ast.Name)
                       else getattr(node.func, "attr", None)) == "Fraction")


def test_fraction_calls_are_found():
    text = ("from fractions import Fraction\nx = Fraction(1, 2)\ny = fractions.Fraction(3)\n"
            "z = isinstance(v, Fraction)\nw = _rational(1, 2)\nu = [Fraction(\n    a, b)]\n")
    assert fraction_calls(text) == [2, 3, 6]


def test_only_field_builds_a_fraction():
    """A rational is an int when it is an integer, and ``field.py`` decides
    which (``_rational`` and ``Field.reduce``): no other module builds a
    ``Fraction``."""
    found = [f"{name}:{line}" for name, text in package_sources()
             if name != "field.py" for line in fraction_calls(text)]
    assert found == []


def modulus_tests(text: str):
    """The line of every comparison of a field modulus, a name ``p`` or an
    attribute ``.p``, with None: a test of whether a field is the rationals."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(x, ast.Constant) and x.value is None
                          for x in (node.left, *node.comparators))
                  and any(getattr(x, "id", None) == "p" or getattr(x, "attr", None) == "p"
                          for x in (node.left, *node.comparators)))


def test_modulus_tests_are_found():
    text = ("a = x % p if p is not None else f.reduce(x)\nb = field.p is None\n"
            "c = None == self.p\nd = q is None\ne = p == 2\ng = hash((f.p, c))\n")
    assert modulus_tests(text) == [1, 2, 3]


def test_polynomials_canonical_forms_and_sums_never_ask_the_field():
    """GF(p) and the rationals differ only in ``field.py`` and ``matrix.py``:
    ``poly.py``, ``canonical.py`` and ``sums.py`` reduce through the field
    and never compare its modulus with None."""
    sources = dict(package_sources())
    found = [f"{name}:{line}" for name in ("poly.py", "canonical.py", "sums.py")
             for line in modulus_tests(sources[name])]
    assert found == []


def bool_tests(text: str):
    """(line, owner) of every ``isinstance`` call that names ``bool``, with
    the top-level function or class it sits in (None at module level)."""
    found = []
    for stmt in ast.parse(text).body:
        found += [(node.lineno, getattr(stmt, "name", None)) for node in ast.walk(stmt)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2
                  and any(getattr(x, "id", None) == "bool" for x in ast.walk(node.args[1]))]
    return sorted(found)


def test_bool_tests_are_found():
    text = ("def f(x):\n    return isinstance(x, bool)\n\nclass C:\n    def g(self, y):\n"
            "        return isinstance(y, (int, bool))\n\nz = isinstance(w, bool) or 1\n"
            "v = isinstance(w, int)\nu = type(w) is bool\n")
    assert bool_tests(text) == [(2, "f"), (6, "C"), (8, None)]


def test_only_is_int_tells_an_int_from_a_bool():
    """What an integer is has one home, ``field._is_int`` (an int that is not
    a bool): no other function calls ``isinstance(..., bool)``."""
    found = [(name, owner) for name, text in package_sources() for _, owner in bool_tests(text)]
    assert found == [("field.py", "_is_int")]


def test_code_lines_skip_blanks_comments_and_docstrings():
    """A code line is covered by a token other than a comment or layout,
    outside the module, class and function docstrings; each line of a call
    over several lines and of a string that is not a docstring counts."""
    text = ('"""Module docstring,\non two lines."""\n'
            "\n"
            "# a comment\n"
            "def f(x):\n"
            '    """Function docstring."""\n'
            "    y = g(x,  # trailing comment\n"
            "          1)\n"
            '    return "not a docstring"\n'
            "\n"
            's = """a string\n'
            'on two lines"""\n')
    assert code_lines(text) == 6


def test_code_lines_compares_two_directories(tmp_path, capsys):
    """With an old directory each module's code lines print old -> new, a
    module on one side only counting 0 on the other, and so does the total;
    with one directory each module prints its code and file lines."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text("x = 1\ny = 2\n")
    (old / "gone.py").write_text("z = 3\n")
    (new / "a.py").write_text("# a comment\nx = 1\n")
    (new / "added.py").write_text('"""Docstring."""\n\nw = 4\nv = 5\n')
    (new / "notes.txt").write_text("not a module\n")
    print_line_counts(str(new), str(old))
    assert capsys.readouterr().out.splitlines() == [
        "a.py                 2 ->     1",
        "added.py             0 ->     2",
        "gone.py              1 ->     0",
        "total                3 ->     3"]
    print_line_counts(str(new))
    assert capsys.readouterr().out.splitlines() == [
        "a.py                 1     2",
        "added.py             2     4",
        "total                3     6"]
