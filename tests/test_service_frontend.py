"""Tests for front-end servers and the closed-form transfer model."""

import numpy as np
import pytest

from repro.logs import DeviceType, Direction, RequestKind
from repro.logs.columnar import DEVICE_CODE, DIRECTION_CODE
from repro.service import FrontendServer, TransferModel

ANDROID = DEVICE_CODE[DeviceType.ANDROID]
IOS = DEVICE_CODE[DeviceType.IOS]
STORE = DIRECTION_CODE[Direction.STORE]
RETRIEVE = DIRECTION_CODE[Direction.RETRIEVE]


class TestTransferModel:
    def test_window_limited_upload(self):
        model = TransferModel(server_rwnd=64 * 1024)
        # 64 KB / 0.1 s = 640 KB/s window rate, below the 10 MB/s path.
        t = model.transfer_time(
            640 * 1024, rtt=0.1, bandwidth=10_000_000.0,
            direction=Direction.STORE,
        )
        assert t == pytest.approx(1.0)

    def test_bandwidth_limited_upload(self):
        model = TransferModel()
        t = model.transfer_time(
            100_000, rtt=0.1, bandwidth=50_000.0, direction=Direction.STORE
        )
        assert t == pytest.approx(2.0)

    def test_download_uses_client_window(self):
        model = TransferModel(client_rwnd=2 * 1024 * 1024)
        up = model.transfer_time(
            1_000_000, rtt=0.1, bandwidth=1e9, direction=Direction.STORE
        )
        down = model.transfer_time(
            1_000_000, rtt=0.1, bandwidth=1e9, direction=Direction.RETRIEVE
        )
        assert down < up

    def test_restart_penalty_adds_rtts(self):
        model = TransferModel(restart_penalty_rtts=4.0)
        base = model.transfer_time(
            100_000, rtt=0.1, bandwidth=1e6, direction=Direction.STORE
        )
        restarted = model.transfer_time(
            100_000, rtt=0.1, bandwidth=1e6,
            direction=Direction.STORE, restarted=True,
        )
        assert restarted == pytest.approx(base + 0.4)

    def test_validation(self):
        model = TransferModel()
        with pytest.raises(ValueError):
            model.transfer_time(-1, 0.1, 1e6, Direction.STORE)
        with pytest.raises(ValueError):
            model.transfer_time(100, 0.0, 1e6, Direction.STORE)

    def test_zero_byte_transfer_is_free(self):
        """Metadata-only / empty-file requests cost processing time only."""
        model = TransferModel()
        assert model.transfer_time(0, 0.1, 1e6, Direction.STORE) == 0.0
        # The restart penalty applies to data transfers, not empty ones.
        assert model.transfer_time(
            0, 0.1, 1e6, Direction.RETRIEVE, restarted=True
        ) == 0.0


class TestFrontendServer:
    def make(self):
        return FrontendServer(server_id=0)

    def test_chunk_emits_log_record(self):
        server = self.make()
        rng = np.random.default_rng(0)
        outcome = server.handle_chunk(
            timestamp=10.0,
            user_id=1,
            device_id="d1",
            device_type_code=ANDROID,
            direction_code=STORE,
            size=512 * 1024,
            rtt=0.1,
            bandwidth=1e6,
            rng=rng,
        )
        assert outcome.ok
        log = server.take_log()
        assert len(log) == 1
        assert len(server.take_log()) == 0
        record = log.record(0)
        assert record.device_type is DeviceType.ANDROID
        assert record.direction is Direction.STORE
        assert record.kind is RequestKind.CHUNK
        assert record.is_ok
        assert record.volume == 512 * 1024
        assert record.processing_time == pytest.approx(outcome.tchunk)
        assert record.server_time == pytest.approx(outcome.tsrv)
        assert outcome.tchunk > outcome.tsrv > 0
        assert outcome.elapsed == pytest.approx(outcome.tchunk)

    def test_file_op_emits_zero_volume_record(self):
        server = self.make()
        server.handle_file_op(
            timestamp=1.0,
            user_id=1,
            device_id="d",
            device_type_code=IOS,
            direction_code=RETRIEVE,
            rtt=0.05,
            rng=np.random.default_rng(0),
        )
        record = server.take_log().record(0)
        assert record.kind is RequestKind.FILE_OP
        assert record.device_type is DeviceType.IOS
        assert record.direction is Direction.RETRIEVE
        assert record.volume == 0

    def test_byte_counters(self):
        server = self.make()
        rng = np.random.default_rng(0)
        server.handle_chunk(
            timestamp=0.0, user_id=1, device_id="d",
            device_type_code=IOS, direction_code=STORE,
            size=100, rtt=0.1, bandwidth=1e6, rng=rng,
        )
        server.handle_chunk(
            timestamp=0.0, user_id=1, device_id="d",
            device_type_code=IOS, direction_code=RETRIEVE,
            size=300, rtt=0.1, bandwidth=1e6, rng=rng,
        )
        assert server.bytes_stored == 100
        assert server.bytes_served == 300

    def test_restart_lengthens_chunk(self):
        server = self.make()
        plain = server.handle_chunk(
            timestamp=0.0, user_id=1, device_id="d",
            device_type_code=IOS, direction_code=STORE,
            size=512 * 1024, rtt=0.1, bandwidth=1e6,
            restarted=False, rng=np.random.default_rng(5),
        )
        restarted = server.handle_chunk(
            timestamp=0.0, user_id=1, device_id="d",
            device_type_code=IOS, direction_code=STORE,
            size=512 * 1024, rtt=0.1, bandwidth=1e6,
            restarted=True, rng=np.random.default_rng(5),
        )
        assert restarted.tchunk > plain.tchunk
