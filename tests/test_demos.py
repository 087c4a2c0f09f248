import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_runs(capsys):
    # an API change that breaks a demo fails here
    assert len(DEMOS) == 4
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, path.name
