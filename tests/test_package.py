"""The package as users meet it: the README's library example and its imports."""

import json
import re
import subprocess
import sys
from pathlib import Path

import reannotate
from reannotate.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's library API is fixed; renaming anything it shows must fail here
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data", "--seed", "7", "--pool-size", "200"]) == 0
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_imports_only_the_standard_library():
    # zero runtime dependencies: numpy or orjson being installed must not let an import slip in
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import reannotate, reannotate.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(reannotate.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    loaded = json.loads(result.stdout)
    assert "reannotate" in loaded
    assert [m for m in loaded if m != "reannotate" and m not in sys.stdlib_module_names] == []
