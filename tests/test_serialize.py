import json

import numpy as np
import pytest

from schurmaps import SerializationError, decompose_identity_xi
from schurmaps import serialize
from conftest import random_correlation, random_density, random_flat_decomposition


class TestMatrixEnvelope:
    def test_round_trip_exact(self, rng):
        m = random_density(rng, 3).matrix
        kind, back = serialize.matrix_from_dict(serialize.matrix_to_dict(m, "state"))
        assert kind == "state"
        assert np.array_equal(back, m)

    def test_json_file_round_trip(self, tmp_path, rng):
        m = random_correlation(rng, 4).matrix
        path = tmp_path / "xi.json"
        serialize.save_json(path, serialize.matrix_to_dict(m, "correlation"))
        _, back = serialize.load_matrix(path)
        assert np.array_equal(back, m)

    def test_rejects_unknown_kind(self):
        with pytest.raises(SerializationError):
            serialize.matrix_to_dict(np.eye(2), "mystery")

    @pytest.mark.parametrize("kind", ["unitary", "generic"])
    def test_rejects_kinds_without_a_role(self, kind):
        with pytest.raises(SerializationError):
            serialize.matrix_to_dict(np.eye(2), kind)
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"kind": kind, "dim": 1, "entries": [[1, 0]]})

    def test_readers_require_their_own_kind(self):
        eye = serialize.matrix_to_dict(np.eye(1), "correlation")
        assert serialize.correlation_from_dict(eye).dim == 1
        with pytest.raises(SerializationError, match="'state'"):
            serialize.density_from_dict(eye)
        with pytest.raises(SerializationError, match="'correlation'"):
            serialize.correlation_from_dict(dict(eye, kind="state"))

    def test_rejects_bad_entry_count(self):
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"kind": "state", "dim": 2, "entries": [[1, 0]]})

    def test_rejects_malformed(self):
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 2})

    @pytest.mark.parametrize(
        "fields",
        [{"dim": "3.5"}, {"dim": float("inf")}, {"dim": 1.5}, {"dim": True}, {"dim": "1"},
         {"entries": None}, {"entries": 5}, {"entries": [[10**400, 0]]}],
    )
    def test_rejects_malformed_fields(self, fields):
        obj = dict({"kind": "state", "dim": 1, "entries": [[1, 0]]}, **fields)
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict(obj)

    @pytest.mark.parametrize("indent", [None, 1])
    def test_entries_are_those_of_each_scalar(self, rng, indent):
        # the entries taken in one pass write the JSON that [z.real, z.imag] per numpy
        # scalar wrote, byte for byte
        special = np.array([[-0.0, np.inf], [-np.inf, np.nan]], dtype=complex)
        special[0, 1] += complex(0, -0.0)
        special[1, 0] += complex(0, np.nan)
        cases = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (1, 2, 4, 7)]
        cases += [special, complex(-0.0, -0.0) * np.ones((2, 2)), rng.normal(size=(3, 3))]
        cases += [(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).T]
        for m in cases:
            mm = np.asarray(m, dtype=complex)
            expected = {"kind": "state", "dim": mm.shape[0],
                        "entries": [[z.real, z.imag] for z in mm.reshape(-1)]}
            got = serialize.matrix_to_dict(m, "state")
            assert json.dumps(got, indent=indent) == json.dumps(expected, indent=indent)
            assert all(type(x) is float for entry in got["entries"] for x in entry)

    def test_integral_float_dim_accepted(self):
        kind, m = serialize.matrix_from_dict({"kind": "state", "dim": 1.0, "entries": [[2, 0]]})
        assert m.shape == (1, 1) and m[0, 0] == 2


class TestDecompositionEnvelope:
    def test_round_trip(self, rng):
        dec = random_flat_decomposition(rng, 3, 5)
        obj = serialize.decomposition_to_dict(dec)
        back = serialize.decomposition_from_dict(json.loads(json.dumps(obj)))
        assert np.array_equal(back.weights, dec.weights)
        assert np.max(np.abs(back.phase_vectors - dec.phase_vectors)) < 1e-15

    def test_clock_round_trip(self):
        dec = decompose_identity_xi(4)
        back = serialize.decomposition_from_dict(serialize.decomposition_to_dict(dec))
        assert np.max(np.abs(back.phase_vectors - dec.phase_vectors)) < 1e-15

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SerializationError):
            serialize.decomposition_from_dict(
                {"dim": 2, "weights": [1.0], "phases": [[0.0, 0.0, 0.0]]}
            )

    @pytest.mark.parametrize(
        "fields",
        [{"dim": float("inf")}, {"dim": 2.7}, {"dim": 1.5}, {"weights": 1.0}, {"weights": [[1.0]]},
         {"phases": [[0.0, float("inf")]]}, {"phases": [[float("nan"), 0.0]]},
         {"dim": 0, "phases": [[]]}],
    )
    def test_rejects_malformed_fields(self, fields):
        obj = dict({"dim": 2, "weights": [1.0], "phases": [[0.0, 0.0]]}, **fields)
        with pytest.raises(SerializationError):
            serialize.decomposition_from_dict(obj)


class TestWriteCsv:
    def test_format(self, tmp_path):
        # the screen-pattern shape: two float columns
        path = tmp_path / "p.csv"
        thetas, intensities = np.array([0.0, 0.1]), np.array([1.0, 1 / 3])
        serialize.write_csv(path, ["theta", "intensity"], zip(thetas, intensities))
        assert path.read_bytes() == (
            b"theta,intensity\n0,1\n0.10000000000000001,0.33333333333333331\n"
        )

    def test_decay_table(self, tmp_path):
        # the decay-table shape: an integer step count, then one magnitude per pair
        path = tmp_path / "d.csv"
        rows = [[0, 0.5, 0.25], [20, 2.0**-21, 0.0]]
        serialize.write_csv(path, ["n", "abs_rho_0_1", "abs_rho_0_2"], rows)
        assert path.read_bytes() == (
            b"n,abs_rho_0_1,abs_rho_0_2\n0,0.5,0.25\n20,4.76837158203125e-07,0\n"
        )
