"""Model persistence (.npz state archives)."""

import json

import numpy as np
import pytest

from repro import nn
from repro.models import XFraudDetectorPlus
from repro.nn.serialization import _MANIFEST_KEY, load_state, save_state


def _manifest(path):
    """The manifest a state archive carries, read from the archive itself."""
    with np.load(path) as archive:
        return json.loads(archive[_MANIFEST_KEY].tobytes().decode("utf-8"))


class TestSaveLoad:
    def test_roundtrip_linear(self, tmp_path):
        model = nn.Linear(4, 3, rng=np.random.default_rng(0))
        path = save_state(model, str(tmp_path / "linear"))
        other = nn.Linear(4, 3, rng=np.random.default_rng(1))
        load_state(other, path)
        np.testing.assert_allclose(model.weight.data, other.weight.data)
        np.testing.assert_allclose(model.bias.data, other.bias.data)

    def test_roundtrip_detector(self, tmp_path, detector_config, trained_detector, tiny_graph, tiny_splits):
        _, test = tiny_splits
        path = save_state(trained_detector, str(tmp_path / "detector.npz"))
        clone = XFraudDetectorPlus(detector_config)
        load_state(clone, path)
        np.testing.assert_allclose(
            trained_detector.predict_proba(tiny_graph, test[:10]),
            clone.predict_proba(tiny_graph, test[:10]),
        )

    def test_npz_suffix_appended(self, tmp_path):
        model = nn.Linear(2, 2)
        path = save_state(model, str(tmp_path / "model"))
        assert path.endswith(".npz")

    def test_manifest(self, tmp_path):
        model = nn.Linear(2, 2)
        path = save_state(model, str(tmp_path / "m"))
        manifest = _manifest(path)
        assert manifest["format"] == "repro-state-v1"
        assert manifest["num_parameters"] == model.num_parameters()
        assert "weight" in manifest["keys"]

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = save_state(nn.Linear(2, 2), str(tmp_path / "m"))
        with pytest.raises(ValueError):
            load_state(nn.Linear(2, 3), path)

    def test_wrong_archive_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_state(nn.Linear(2, 2), path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(nn.Linear(2, 2), str(tmp_path / "absent"))

    def test_manifest_records_checksums(self, tmp_path):
        model = nn.Linear(2, 2)
        manifest = _manifest(save_state(model, str(tmp_path / "m")))
        assert set(manifest["crc32"]) == set(manifest["keys"])

    def test_corrupted_array_detected(self, tmp_path):
        """Tampering with a stored array fails the manifest checksum."""
        model = nn.Linear(3, 3, rng=np.random.default_rng(0))
        path = save_state(model, str(tmp_path / "m"))
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["weight"] = payload["weight"] + 1.0  # silent corruption
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="checksum"):
            load_state(nn.Linear(3, 3), path)
