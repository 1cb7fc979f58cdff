import re
from pathlib import Path

import ghzent

README = Path(__file__).resolve().parents[1] / "README.md"

# The public names, pinned so that one is added or dropped only on purpose.
PUBLIC_NAMES = {
    "MAX_QUBITS",
    "SubsetMask",
    "Bipartition",
    "enumerate_bipartitions",
    "GhzDiagonalState",
    "random_state",
    "state_to_json_dict",
    "state_from_json_dict",
    "load_state",
    "CoefficientWitness",
    "PartitionVerdict",
    "ClassificationReport",
    "is_ppt",
    "classify",
    "noise_threshold",
    "full_entanglement_threshold",
    "DEFAULT_ORACLE",
    "is_ppt_dense",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(ghzent.__all__) == len(PUBLIC_NAMES) == 19
    assert set(ghzent.__all__) == PUBLIC_NAMES
    for name in ghzent.__all__:
        assert hasattr(ghzent, name), name


def test_readme_api_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md API sketch", "exec"), {})
