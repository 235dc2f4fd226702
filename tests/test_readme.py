"""The README's Library use example runs against the package as it is."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example() -> str:
    """The first python block under the README's Library use heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_example(), f"{README.name} (Library use)", "exec"), namespace)
    n = 2 * 200
    assert namespace["fm"].frequencies.shape == (200, 2)
    assert namespace["mean"].shape == namespace["var"].shape == (5,)
    assert np.all(namespace["var"] > 0)
    assert namespace["mu"].shape == (n,) and namespace["B"].shape == (n, n)
