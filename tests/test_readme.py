"""The README's Python examples run as written, against the library API they
document."""
import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace = {}  # later blocks use the imports of earlier ones, as a reader would
    for i, block in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
            except Exception as exc:
                raise AssertionError(f"README python block {i + 1} fails:\n{block}") from exc
    # What the comments promise: the spectrum matches its classical reference,
    # and the sampler gives one estimate per row and word.
    spectrum, H = namespace["spectrum"], namespace["H"]
    assert np.max(np.abs(spectrum.energies - np.linalg.eigvalsh(H))) < 1e-6
    assert namespace["values"].shape == (2, 2)
