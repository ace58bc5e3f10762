import pytest

from helpers import SCALE_SPECS
from priosynth.bench import generate_graph
from priosynth.graph import load_dag


@pytest.fixture
def diamond():
    # 0 -> {1, 2} -> 3 with mixed types; cp = 0 -> 1 -> 3 = 7.
    return load_dag(
        {
            "nodes": [
                {"id": 0, "type": "alu", "duration": 2},
                {"id": 1, "type": "alu", "duration": 3},
                {"id": 2, "type": "mem", "duration": 1},
                {"id": 3, "type": "alu", "duration": 2},
            ],
            "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
            "capacities": {"alu": 1, "mem": 1},
        }
    )


@pytest.fixture
def chain5():
    return load_dag(
        {
            "nodes": [{"id": i, "type": "alu", "duration": i + 1} for i in range(5)],
            "edges": [[i, i + 1] for i in range(4)],
            "capacities": {"alu": 1},
        }
    )


@pytest.fixture(scope="session")
def scale_dags():
    return tuple(generate_graph(spec, 0) for spec in SCALE_SPECS)
