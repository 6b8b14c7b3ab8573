import os
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
