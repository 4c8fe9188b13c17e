"""``tools/test_only_names.py`` on a small tree: which definitions it lists
as named by nothing but their own definition and the tests.  On this
repository it must list only the deliberate keeps."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "test_only_names.py")
spec = importlib.util.spec_from_file_location("test_only_names_tool", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def test_lists_definitions_named_only_by_themselves_or_tests(tmp_path):
    root = str(tmp_path)
    write(root, "src/sydes/mod.py",
          "def used():\n"
          "    return 1\n"
          "\n"
          "\n"
          "def recursive(n):\n"
          "    return recursive(n - 1) if n else 0\n"
          "\n"
          "\n"
          "class Box:\n"
          "    def __init__(self):\n"
          "        self.lonely_too = 0\n"
          "\n"
          "    def shared(self):\n"
          "        return used()\n"
          "\n"
          "    def lonely(self):\n"
          "        return 2\n")
    write(root, "src/sydes/other.py", "from .mod import Box\n")
    write(root, "tools/run.py", "print(box.shared())\n")
    write(root, "perfbench/hook.py", "# wraps recursive_helper only\n")
    write(root, "src/sydes/notes.txt", "lonely recursive\n")
    write(root, "tests/test_mod.py", "from sydes.mod import lonely, recursive\n")
    assert tool.scan(root) == ["src/sydes/mod.py:5 recursive", "src/sydes/mod.py:16 lonely"]


def test_a_name_only_prose_mentions_is_listed(tmp_path):
    """A docstring, a comment or a sentence in a string does not use a
    name; a string that is the identifier itself does (``getattr``)."""
    root = str(tmp_path)
    write(root, "src/sydes/mod.py",
          "def reference():\n"
          "    return 1\n"
          "\n"
          "\n"
          "def fast():\n"
          '    """Checked against ``reference`` and reference()."""\n'
          "    return 1  # reference\n"
          "\n"
          "\n"
          "def hooked():\n"
          "    return 2\n")
    write(root, "tools/run.py", "from sydes.mod import fast\n")
    write(root, "perfbench/hook.py",
          'wrapped = getattr(mod, "hooked")\n'
          'label = "the reference path"\n')
    assert tool.scan(root) == ["src/sydes/mod.py:1 reference"]


def test_repository_lists_only_the_deliberate_keeps():
    """A new definition that only tests name fails here: delete it, or give
    it a caller.  The three listed are kept on purpose (ROADMAP item 11)."""
    assert [entry.split()[1] for entry in tool.scan(ROOT)] == ["select_unmasked", "read_ppm",
                                                               "detokenize_ids"]
