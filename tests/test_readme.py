from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_sketch_runs(monkeypatch):
    # the README's library sketch, as written, from the repository root
    sketch = (ROOT / "README.md").read_text().split("## Library sketch\n")[1]
    code = sketch.split("```python\n")[1].split("```")[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
