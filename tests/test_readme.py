"""README's python blocks run as written and print the values their comments claim."""

import ast
import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    ns = {}
    claims = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, str(README), "exec"), ns)
        for line in blocks[0].splitlines():
            code, _, comment = line.partition("#")
            if comment.strip().startswith("{"):
                claims.append((eval(code, ns), ast.literal_eval(comment.strip())))
    assert [want for _, want in claims] == [{"+": 0.8, "-": 0.2}, {"+": 0.5, "-": 0.5}]
    for got, want in claims:
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 for k in want)
