"""The source and test files keep to the project's 100-character lines."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100


def test_no_line_over_the_limit():
    files = sorted((ROOT / "src" / "heatlocal").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    )
    assert files
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
