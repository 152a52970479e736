"""scripts/process_wall.py times whole processes of two trees, on stand-in trees."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "process_wall.py"
spec = importlib.util.spec_from_file_location("process_wall", SCRIPT)
process_wall = importlib.util.module_from_spec(spec)
spec.loader.exec_module(process_wall)

# Each stand-in package prints its argv and exits 3; the change's also holds
# 64 MiB, written so that every page is resident.
MAIN = "import sys\n{}print(sys.argv[1:])\nsys.exit(3)\n"


def test_each_child_measured_alone_and_bytecode_stated(tmp_path, monkeypatch):
    for side, body in (("parent", ""), ("change", "held = b'x' * (64 << 20)\n")):
        package = tmp_path / side / "src" / "denumerant"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(MAIN.format(body))
    monkeypatch.setattr(process_wall, "ARGVS", ("count --n 5",))
    out = tmp_path / "out.json"
    sides = [str(tmp_path / side) for side in ("parent", "change")]
    assert process_wall.main([*sides, "--runs", "2", "--out", str(out)]) == 0
    assert process_wall.main([*sides, "--runs", "2", "--compile", "--out", str(out),
                              "--key", "compiled"]) == 0
    data = json.loads(out.read_text())
    assert data["process_wall"]["package_bytecode"] == {"parent": False, "change": False}
    assert data["compiled"]["package_bytecode"] == {"parent": True, "change": True}
    (row,) = data["process_wall"]["rows"]
    assert row["argv"] == "count --n 5"
    assert row["exit_codes"] == {"parent": [3], "change": [3]} and row["same_stdout"]
    rss = row["max_rss_mb"]
    assert rss["change"]["median"] - rss["parent"]["median"] > 60
    assert rss["change_wins"] == "0/2" and len(row["wall_s"]["parent_runs"]) == 2
