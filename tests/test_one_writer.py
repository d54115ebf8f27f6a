"""Every output is written through ``atomic.open_atomic``: no other framebias
module opens a file for writing or renames one onto a target, apart from the
write ends of ``forking``'s pipes. Found with the stdlib ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "framebias"

WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}
# calls that write a file whatever their arguments, by the name they are called by
WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed", "savetxt", "mkstemp",
           "NamedTemporaryFile", "TemporaryFile", "memmap"}
MODULES = {"io", "os", "gzip", "bz2", "lzma", "codecs"}  # whose open takes the file, then the mode


def _writes(call: ast.Call) -> bool:
    func = call.func
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if owner == "os" and name in ("replace", "rename"):
        return True
    if owner == "os" and name == "open":
        return any(getattr(node, "attr", getattr(node, "id", None)) in WRITE_FLAGS for node in ast.walk(call))
    if name in WRITERS:
        return True
    if name not in ("open", "fdopen"):
        return False
    # a method of a path object takes the mode first; open and a module's open take the file first
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if owner in MODULES or isinstance(func, ast.Name) else call.args[:1]
    if not modes:
        return False  # read, by default
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def write_opens(source: str) -> list[str]:
    """The source text of each call in ``source`` that writes a file."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return sorted(ast.unparse(call) for call in calls if _writes(call))


def test_no_module_but_atomic_writes_a_file():
    found = {
        path.name: write_opens(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "atomic.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {"forking.py": ["open(write, 'wb')"]}


def test_a_write_is_found_and_a_read_is_not():
    source = """
open(path, "w"); open(path, mode="ab"); open(path, flag); Path(p).open("r+"); io.open(p, "x")
os.open(p, os.O_WRONLY | os.O_CREAT); os.fdopen(fd, "wb"); p.write_text("x"); np.save(p, a)
os.replace(a, b); tempfile.mkstemp()
open(path); open(path, "rb"); open(path, encoding="utf-8"); Path(p).open(); os.open(p, os.O_RDONLY)
text.replace("_", "-"); fh.write("x")
"""
    assert write_opens(source) == sorted([
        "open(path, 'w')", "open(path, mode='ab')", "open(path, flag)", "Path(p).open('r+')", "io.open(p, 'x')",
        "os.open(p, os.O_WRONLY | os.O_CREAT)", "os.fdopen(fd, 'wb')", "p.write_text('x')", "np.save(p, a)",
        "os.replace(a, b)", "tempfile.mkstemp()",
    ])
