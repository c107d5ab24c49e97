"""Config defaults, file parsing, coercion, and validation."""

import numpy as np
import pytest

from taam.config import RunConfig, make_config, parse_bool, read_config_file
from taam.errors import ContractError


def test_defaults_validate():
    cfg = make_config()
    assert cfg.method == "taam" and cfg.ablation == "full"
    assert cfg.hidden_dim == 256 and cfg.embed_dim == 64 and cfg.heads == 3
    assert cfg.lr == 0.005 and cfg.weight_decay == 5e-4 and cfg.epochs == 200
    assert cfg.np_dtype is np.float64
    assert cfg.variant.warm_start


def test_ablation_controls_warm_start():
    assert make_config(None, {"ablation": "retrieval_only"}).variant.warm_start is False
    assert make_config(None, {"ablation": "nsm_only"}).variant.warm_start is False


def test_protocol_parsing():
    assert make_config(None, {"protocol": "equal:3"}).protocol_spec() == (3, None)
    assert make_config(None, {"protocol": "unequal:3,2,2"}).protocol_spec() == (None, [3, 2, 2])
    for bad in ("equal:x", "unequal:", "triangular:2", "equal", "equal:0", "equal:-1", "unequal:2,0"):
        with pytest.raises(ContractError):
            make_config(None, {"protocol": bad})


def test_parse_bool():
    for text in ("true", "1", "yes", "ON"):
        assert parse_bool(text) is True
    for text in ("false", "0", "no", "Off"):
        assert parse_bool(text) is False
    with pytest.raises(ContractError):
        parse_bool("maybe")


def test_read_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment\n"
        "\n"
        "seed = 3\n"
        "dataset = sbm:classes=4,npc=10,dim=8,sep=9\n"
        "row_normalize = yes\n"
    )
    values = read_config_file(path)
    assert values == {
        "seed": "3",
        "dataset": "sbm:classes=4,npc=10,dim=8,sep=9",
        "row_normalize": "yes",
    }
    cfg = make_config(values)
    assert cfg.seed == 3 and cfg.row_normalize is True

    bad = tmp_path / "bad.conf"
    bad.write_text("seed 3\n")
    with pytest.raises(ContractError, match=":1"):
        read_config_file(bad)


def test_overrides_beat_file_values():
    cfg = make_config({"seed": "3", "epochs": "10"}, {"seed": 7, "epochs": None})
    assert cfg.seed == 7  # override wins
    assert cfg.epochs == 10  # None override is "not given"


def test_unknown_key_and_bad_values():
    with pytest.raises(ContractError, match="unknown config key 'sedd'"):
        make_config(None, {"sedd": 1})
    with pytest.raises(ContractError, match="bad value for epochs"):
        make_config(None, {"epochs": "ten"})
    with pytest.raises(ContractError, match="bad value for lr"):
        make_config(None, {"lr": "fast"})


def test_validation_rules():
    with pytest.raises(ContractError, match="method"):
        make_config(None, {"method": "svm"})
    with pytest.raises(ContractError, match="taam only"):
        make_config(None, {"method": "oracle", "ablation": "nsm_only"})
    with pytest.raises(ContractError, match="reduction"):
        make_config(None, {"reduction": "max"})
    with pytest.raises(ContractError, match="precision"):
        make_config(None, {"precision": "f16"})
    with pytest.raises(ContractError):
        make_config(None, {"epochs": 0})
    for key in ("heads", "embed_dim"):
        with pytest.raises(ContractError, match="heads >= 1"):
            make_config(None, {key: 0})
    for key, value in [("lr", 0), ("lr", -1), ("lr", "nan"), ("lr", "inf"),
                       ("weight_decay", -1), ("weight_decay", "nan"), ("weight_decay", "inf")]:
        with pytest.raises(ContractError, match="weight_decay finite"):
            make_config(None, {key: value})
    assert make_config(None, {"weight_decay": 0}).weight_decay == 0
    for fractions in ({"train_frac": 1.5}, {"train_frac": 0}, {"val_frac": -0.1},
                      {"train_frac": 0.6, "val_frac": 0.4}, {"val_frac": "nan"}):
        with pytest.raises(ContractError, match="split fractions"):
            make_config(None, fractions)


def test_precision_dtype_and_echo_round_trip():
    cfg = make_config(None, {"precision": "f32"})
    assert cfg.np_dtype is np.float32
    echoed = cfg.echo()
    again = make_config(None, echoed)
    assert again == cfg
    assert set(echoed) == {f.name for f in RunConfig.__dataclass_fields__.values()}
