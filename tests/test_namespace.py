import ast
import os
import re
import subprocess
import sys
import types

import admmflow as af
from admmflow import analysis, discrete, exceptions, flows, problem, trajectory


def test_namespace_reexports_exactly_the_module_all_lists():
    # a name deleted from a module cannot linger in the package namespace, and
    # every name a module declares public is reachable from it
    declared = set().union(*(m.__all__ for m in (analysis, discrete, exceptions, flows,
                                                 problem, trajectory)))
    exported = {name for name, value in vars(af).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == declared


def test_every_private_module_name_is_loaded():
    # a module-level private name (a helper, class or constant) defined in the
    # package is loaded somewhere in it: one left without a caller is dead code
    src = os.path.dirname(af.__file__)
    trees = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                trees.append(ast.parse(fh.read(), name))
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    loaded = {node.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert len(private) >= 38  # the check sees the package's helpers
    assert sorted(private - loaded) == []


def test_docs_cite_only_names_that_exist():
    # each name a Sphinx role (:func:, :meth:, :attr:, :class:, :data:) cites
    # in the package, and each private name cited in double backticks there or
    # in single backticks in README.md, is defined in the package or in
    # tests/helpers.py, so a rename leaves no stale name in the docs
    src = os.path.dirname(af.__file__)
    root = os.path.dirname(os.path.dirname(src))
    paths = [os.path.join(src, name) for name in sorted(os.listdir(src)) if name.endswith(".py")]
    defined = {"admmflow"}
    texts = []
    for path in paths + [os.path.join(root, "tests", "helpers.py")]:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
        tree = ast.parse(texts[-1], path)
        defined.add(os.path.basename(path)[:-3])
        bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for node in ast.walk(tree):  # functions and classes at any depth, self.<name> = ...
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in (node for body in bodies for node in body):  # module and class names
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    # a private identifier, with its attributes: not a subscript such as ||H||_F
    private = re.compile(r"(?<![^\s.(\[,=])_[A-Za-z]\w*(?:\.\w+)*")
    cited = set()
    for text in texts[:len(paths)]:
        cited.update(re.findall(r":(?:func|meth|attr|class|data):`~?([\w.]+)`", text))
        cited.update(name for span in re.findall(r"``(.+?)``", text, re.S)
                     for name in private.findall(span))
    cited.update(name for span in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", readme)
                 for name in private.findall(span))
    assert len(cited) >= 35  # the check sees the docs' citations
    assert sorted(name for name in cited if not set(name.split(".")) <= defined) == []


def test_cli_imports_no_scipy():
    # the runtime is numpy only: scipy is a test dependency, never imported by
    # the package (checked in a fresh interpreter, as each CLI run starts one)
    src = os.path.dirname(os.path.dirname(af.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, admmflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


def test_readme_library_example_runs(capsys):
    # the one runnable example of the docs names only the public API there is
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library example\n"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[:code.index("\n```")]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
