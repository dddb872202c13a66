"""The package reads no environment variable: every setting comes from a
flag or a --config line, where the subcommand's parser names and checks it.

The source of src/actknow is parsed, so `os.environ`, `os.getenv` and their
byte forms are caught under any alias of `os` (`import os as o`) and when
imported by name (`from os import environ`).
"""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "actknow")

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str, filename: str) -> list[str]:
    """filename:line of each reference to the environment in `source`."""
    tree = ast.parse(source, filename)
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{filename}:{node.lineno}" for alias in node.names if alias.name in ENVIRONMENT]
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{filename}:{node.lineno}")
    return found


def test_the_guard_sees_each_form():
    for source in ("import os\nos.environ.get('X')", "import os as o\no.getenv('X')",
                   "from os import environ", "from os import getenv as g"):
        assert environment_reads(source, "m.py"), source
    assert not environment_reads("import os\nos.path.join('a')\nenviron = {}", "m.py")


def test_the_package_reads_no_environment_variable():
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += environment_reads(fh.read(), os.path.basename(path))
    assert not found, f"environment read at {found}"
