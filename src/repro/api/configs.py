"""String-addressable machine configurations: presets, overrides, codecs.

This module makes every :class:`~repro.pipeline.config.MachineConfig` the
campaign engine can run addressable by a *config spec* string, exactly as
benchmark ids address trace sources (:mod:`repro.traces`)::

    spec      :=  preset [ "@" window ] [ "?" overrides ]
    overrides :=  key "=" value { "," key "=" value }
    key       :=  field | section "." field

Examples::

    conventional                     the associative-SQ baseline
    nosq@256                         NoSQ on the 256-entry window machine
    nosq?rob_size=256                one dotted-path override
    nosq?backend.rob_size=256        same (window resources answer to
                                     the ``backend.`` namespace too)
    nosq?bypass.history_bits=10,hierarchy.l1_size=32768
    nosq?bypass.impl=myimpl          select a registered component

Sections are the nested config dataclasses — ``backend``
(:class:`BackendConfig`), ``bypass_predictor``
(:class:`BypassPredictorConfig`, alias ``bypass``) and ``hierarchy``
(:class:`HierarchyConfig`, alias ``memory``) — plus the special
``<section>.impl`` keys that select registered component implementations
(:mod:`repro.api.components`).  Values are coerced to the field's declared
type (``none`` for optional fields, ``true``/``false`` for booleans, enums
by value); unknown presets and keys fail with a did-you-mean suggestion.

The five standard presets resolve to configs *identical* to the historical
``MachineConfig.conventional()``/``nosq()`` factories — same fields, same
``name`` — so campaign cache keys are byte-stable across the registry
(pinned by ``tests/test_api.py``).  Override-derived configs get a
canonical name (``nosq-delay?rob_size=256``) and hash into cache keys
through their full field set like any other config.

In list contexts (``repro campaign run --configs``,
:func:`resolve_configs`) a comma separates *specs*; a fragment that looks
like a bare override (contains ``=`` but no ``?``) re-attaches to the
preceding spec, so ``nosq?a=1,b=2,conventional`` means two specs.  Name
parts may use ``*``/``[...]`` globs over preset names (``nosq*``), and
config *set* names (``standard``, ``table5``, ``figure4``) expand to their
member presets.
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
import fnmatch
import re
import types
import typing
from typing import Any, Callable, Iterable, Union

from repro.api.components import (
    IMPL_FIELDS,
    ComponentError,
    selected_components,
    validate_component,
)
from repro.core.bypass_predictor import BypassPredictorConfig
from repro.core.commit_pipeline import BackendConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import MachineConfig, check_window


class ConfigSpecError(ValueError):
    """A config spec failed to parse, resolve or validate."""


ConfigFactory = Callable[[int], MachineConfig]

_SPEC_RE = re.compile(
    r"^(?P<name>[^@?]+)(?:@(?P<window>[^?]+))?(?:\?(?P<overrides>.*))?$"
)

#: Section name -> (MachineConfig field, section dataclass).
_SECTIONS: dict[str, type] = {
    "backend": BackendConfig,
    "bypass_predictor": BypassPredictorConfig,
    "hierarchy": HierarchyConfig,
}
_SECTION_ALIASES = {"bypass": "bypass_predictor", "memory": "hierarchy"}
#: ``<namespace>.impl`` -> top-level component-selector field, and the
#: inverse (for registry validation) — both derived from the canonical
#: kind->field map in :mod:`repro.api.components`.
_IMPL_KEYS = dict(IMPL_FIELDS)
_IMPL_KINDS = {field: kind for kind, field in IMPL_FIELDS.items()}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}
_NONE = {"none", "null"}


def _type_hints(cls: type) -> dict[str, Any]:
    hints = getattr(cls, "__repro_hints__", None)
    if hints is None:
        hints = typing.get_type_hints(cls)
        cls.__repro_hints__ = hints
    return hints


def _suggest(word: str, candidates: Iterable[str]) -> str:
    guess = difflib.get_close_matches(word, list(candidates), n=1)
    return f"; did you mean {guess[0]!r}?" if guess else ""


def _coerce(key: str, raw: str, hint: Any) -> Any:
    """Coerce the raw override token to the field's declared type."""
    origin = typing.get_origin(hint)
    if origin is Union or origin is types.UnionType:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) != len(typing.get_args(hint)):  # Optional[...]
            if raw.strip().lower() in _NONE:
                return None
            hint = args[0] if len(args) == 1 else args
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        token = raw.strip().lower()
        for member in hint:
            if member.value == token:
                return member
        values = [m.value for m in hint]
        raise ConfigSpecError(
            f"{key}: {raw!r} is not one of {values}{_suggest(token, values)}"
        )
    if hint is bool:
        token = raw.strip().lower()
        if token in _TRUE:
            return True
        if token in _FALSE:
            return False
        raise ConfigSpecError(
            f"{key}: expected a boolean (true/false), got {raw!r}"
        )
    if hint is int:
        try:
            return int(raw.strip(), 0)
        except ValueError:
            raise ConfigSpecError(
                f"{key}: expected an integer, got {raw!r}"
            ) from None
    if hint is float:
        try:
            return float(raw.strip())
        except ValueError:
            raise ConfigSpecError(
                f"{key}: expected a number, got {raw!r}"
            ) from None
    if hint is str:
        return raw.strip()
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        raise ConfigSpecError(
            f"{key}: is a config section; set one of its fields instead "
            f"(e.g. {key}.{dataclasses.fields(hint)[0].name}=...)"
        )
    raise ConfigSpecError(f"{key}: cannot coerce {raw!r} to {hint}")


def _render(value: Any) -> str:
    """Canonical token for a coerced override value (for config names)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


def _resolve_key(key: str) -> tuple[str | None, str]:
    """Resolve a (possibly aliased) dotted key to its storage location.

    Returns ``(section_field, field)`` where ``section_field`` is ``None``
    for top-level :class:`MachineConfig` fields.
    """
    top_fields = _type_hints(MachineConfig)
    parts = key.split(".")
    if len(parts) == 1:
        field = parts[0]
        if field == "name":
            raise ConfigSpecError(
                "name: derived from the spec, not overridable"
            )
        if field in _SECTIONS:
            raise ConfigSpecError(
                f"{field}: is a config section; set one of its fields "
                f"(e.g. {field}.{dataclasses.fields(_SECTIONS[field])[0].name}=...)"
            )
        if field not in top_fields:
            candidates = list(top_fields) + list(_SECTIONS) + \
                list(_SECTION_ALIASES)
            raise ConfigSpecError(
                f"unknown config key {field!r}{_suggest(field, candidates)}"
            )
        return None, field
    if len(parts) == 2:
        head, leaf = parts
        section = _SECTION_ALIASES.get(head, head)
        if leaf == "impl" and section in _IMPL_KEYS:
            return None, _IMPL_KEYS[section]
        if section in _SECTIONS:
            section_fields = _type_hints(_SECTIONS[section])
            if leaf in section_fields:
                return section, leaf
            if section == "backend" and leaf in top_fields \
                    and leaf != "name":
                # The paper's window resources (rob_size, iq_size, ...)
                # are back-end machinery; let them answer to backend.*
                # ('name' stays non-overridable through every spelling).
                return None, leaf
            candidates = list(section_fields) + ["impl"]
            if section == "backend":
                candidates += [f for f in top_fields if f != "name"]
            raise ConfigSpecError(
                f"unknown key {leaf!r} in section {head!r}"
                f"{_suggest(leaf, candidates)}"
            )
        raise ConfigSpecError(
            f"unknown config section {head!r}"
            f"{_suggest(head, list(_SECTIONS) + list(_SECTION_ALIASES) + list(_IMPL_KEYS))}"
        )
    raise ConfigSpecError(
        f"config keys nest at most one level (field or section.field), "
        f"got {key!r}"
    )


def parse_overrides(text: str) -> dict[str, Any]:
    """Parse ``k=v,k=v`` into ``{canonical_key: coerced_value}``."""
    overrides: dict[str, Any] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigSpecError(
                f"override {item!r}: expected key=value"
            )
        key, raw = item.split("=", 1)
        key = key.strip()
        section, field = _resolve_key(key)
        cls = _SECTIONS[section] if section else MachineConfig
        value = _coerce(key, raw, _type_hints(cls)[field])
        canonical = f"{section}.{field}" if section else field
        if canonical in overrides:
            raise ConfigSpecError(f"duplicate override for {canonical!r}")
        overrides[canonical] = value
    if not overrides:
        raise ConfigSpecError("empty override list after '?'")
    return overrides


def _check_impl_applicability(config: MachineConfig) -> None:
    """Reject selectors for components the config never instantiates
    (:func:`repro.api.components.component_applicable`), so the error
    surfaces at spec-resolution time — before cache keys are planned or
    a campaign starts.  ``Processor.__init__`` raises too, as defense in
    depth for programmatically-built configs."""
    from repro.api.components import (
        component_applicable,
        inapplicable_message,
    )

    for kind, name in selected_components(config).items():
        if not component_applicable(kind, config):
            raise ConfigSpecError(inapplicable_message(kind, name, config))


def apply_overrides(
    config: MachineConfig, overrides: dict[str, Any]
) -> MachineConfig:
    """Apply parsed *overrides* and derive a canonical config name."""
    top: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for canonical, value in overrides.items():
        if canonical in _IMPL_KINDS and value != "default":
            try:
                validate_component(_IMPL_KINDS[canonical], value)
            except ComponentError as exc:
                raise ConfigSpecError(f"{canonical}: {exc}") from None
        if "." in canonical:
            section, field = canonical.split(".", 1)
            nested.setdefault(section, {})[field] = value
        else:
            top[canonical] = value
    for section, changes in nested.items():
        top[section] = dataclasses.replace(
            getattr(config, section), **changes
        )
    suffix = ",".join(
        f"{key}={_render(value)}" for key, value in sorted(overrides.items())
    )
    config = dataclasses.replace(
        config, name=f"{config.name}?{suffix}", **top
    )
    try:
        check_window(config)
    except ValueError as exc:
        raise ConfigSpecError(str(exc)) from None
    _check_impl_applicability(config)
    return config


@dataclasses.dataclass(frozen=True)
class ConfigPreset:
    """One named, window-parametric machine-configuration factory."""

    name: str
    factory: ConfigFactory
    description: str = ""
    aliases: tuple[str, ...] = ()

    def build(self, window: int = 128) -> MachineConfig:
        try:
            return self.factory(window)
        except ValueError as exc:
            raise ConfigSpecError(f"{self.name}@{window}: {exc}") from None


class ConfigRegistry:
    """Named machine-configuration presets and preset sets."""

    def __init__(self) -> None:
        self._presets: dict[str, ConfigPreset] = {}
        self._aliases: dict[str, str] = {}
        self._sets: dict[str, tuple[str, ...]] = {}
        self._set_descriptions: dict[str, str] = {}

    # -- registration ------------------------------------------------- #

    def register(
        self,
        name: str,
        factory: ConfigFactory | MachineConfig,
        description: str = "",
        aliases: Iterable[str] = (),
        replace: bool = False,
    ) -> ConfigPreset:
        """Register a preset under *name* (and *aliases*).

        *factory* is either ``factory(window: int) -> MachineConfig`` or a
        :class:`MachineConfig` instance.  An instance is a *fixed* machine:
        ``name@N`` is rejected for it (re-applying the paper's window
        scaling to an arbitrary base would compound resources
        unpredictably); register a factory to support ``@window``.
        """
        if not name:
            raise ConfigSpecError("config preset needs a non-empty name")
        if isinstance(factory, MachineConfig):
            base = factory

            def factory(window: int, _base=base, _name=name) -> MachineConfig:
                if window != 128:
                    raise ValueError(
                        f"preset {_name!r} was registered as a fixed "
                        "MachineConfig instance and does not support "
                        "@window scaling; register a factory instead"
                    )
                return dataclasses.replace(_base)

        new_names = {name, *aliases}
        taken = set(self._presets) | set(self._aliases) | set(self._sets)
        # replace=True only exempts the preset being replaced (its name
        # and its old aliases) — it must not let an alias hijack another
        # preset's canonical name or a set name.
        old = self._presets.get(name) if replace else None
        if old is not None:
            taken -= {name, *old.aliases}
        clash = new_names & taken
        if clash:
            raise ConfigSpecError(
                f"config preset name(s) already registered: {sorted(clash)}"
            )
        if old is not None:
            for alias in old.aliases:
                self._aliases.pop(alias, None)
        preset = ConfigPreset(name, factory, description, tuple(aliases))
        self._presets[name] = preset
        for alias in preset.aliases:
            self._aliases[alias] = name
        return preset

    def register_set(
        self, name: str, specs: Iterable[str], description: str = ""
    ) -> None:
        """Register a named list of specs (``standard``, ``table5``, ...)."""
        if name in self._presets or name in self._aliases:
            raise ConfigSpecError(f"{name!r} already names a preset")
        self._sets[name] = tuple(specs)
        self._set_descriptions[name] = description

    def unregister(self, name: str) -> None:
        preset = self._presets.pop(name, None)
        if preset is not None:
            for alias in preset.aliases:
                self._aliases.pop(alias, None)

    # -- introspection ------------------------------------------------- #

    def presets(self) -> dict[str, ConfigPreset]:
        return dict(self._presets)

    def sets(self) -> dict[str, tuple[str, ...]]:
        return dict(self._sets)

    def describe_set(self, name: str) -> str:
        return self._set_descriptions.get(name, "")

    # -- resolution ---------------------------------------------------- #

    def _lookup(self, name: str) -> ConfigPreset:
        target = self._aliases.get(name, name)
        preset = self._presets.get(target)
        if preset is None:
            known = list(self._presets) + list(self._aliases)
            if name in self._sets:
                raise ConfigSpecError(
                    f"{name!r} is a config *set* "
                    f"({', '.join(self._sets[name])}); set names expand in "
                    "list contexts — resolve_configs() or --configs — "
                    f"where {name!r} or '{name}@256' work"
                )
            raise ConfigSpecError(
                f"unknown config preset {name!r} "
                f"(known: {', '.join(sorted(self._presets))})"
                f"{_suggest(name, known)}"
            )
        return preset

    def resolve(self, spec: str, window: int = 128) -> MachineConfig:
        """Resolve one config spec to a :class:`MachineConfig`.

        An explicit ``@N`` in the spec wins over the *window* argument.
        """
        if isinstance(spec, MachineConfig):
            return spec
        match = _SPEC_RE.match(spec.strip())
        if not match or not match.group("name").strip():
            raise ConfigSpecError(
                f"malformed config spec {spec!r} "
                "(expected preset[@window][?key=value,...])"
            )
        name = match.group("name").strip()
        if match.group("window") is not None:
            try:
                window = int(match.group("window"))
            except ValueError:
                raise ConfigSpecError(
                    f"{spec!r}: window must be an integer, "
                    f"got {match.group('window')!r}"
                ) from None
        config = self._lookup(name).build(window)
        if match.group("overrides") is not None:
            config = apply_overrides(
                config, parse_overrides(match.group("overrides"))
            )
        return config

    def resolve_many(
        self, specs: str | Iterable[str], window: int = 128
    ) -> list[MachineConfig]:
        """Resolve a spec list: set names, globs and plain specs.

        A string is first split on commas (bare-override fragments
        re-attach to the spec before them, see :func:`split_spec_list`).
        """
        if isinstance(specs, str):
            items: list[str | MachineConfig] = split_spec_list(specs)
        else:
            items = []
            for spec in specs:
                if isinstance(spec, str):
                    items.extend(split_spec_list(spec))
                else:
                    items.append(spec)
        configs: list[MachineConfig] = []
        for item in items:
            if isinstance(item, MachineConfig):
                configs.append(item)
                continue
            item = item.strip()
            match = _SPEC_RE.match(item)
            name = match.group("name").strip() if match else item
            suffix = item[len(match.group("name")):] if match else ""
            if name in self._sets:
                # Set names expand with the suffix applied to every
                # member: 'standard@256', 'table5?rob_size=96'.
                for member in self._sets[name]:
                    if suffix and ("@" in member or "?" in member):
                        raise ConfigSpecError(
                            f"{item!r}: set member {member!r} already "
                            "carries a window/override suffix"
                        )
                    configs.append(self.resolve(member + suffix, window))
                continue
            if match and any(ch in name for ch in "*["):
                hits = sorted(
                    preset for preset in self._presets
                    if fnmatch.fnmatchcase(preset, name)
                )
                if not hits:
                    raise ConfigSpecError(
                        f"config glob {name!r} matches no preset "
                        f"(known: {', '.join(sorted(self._presets))})"
                    )
                configs.extend(
                    self.resolve(hit + suffix, window) for hit in hits
                )
                continue
            configs.append(self.resolve(item, window))
        if not configs:
            raise ConfigSpecError(f"empty config spec list: {specs!r}")
        # Overlapping globs/sets/aliases legitimately resolve the same
        # machine more than once (nosq* + standard); keep the first of
        # each name.  Same-named but *different* configs are a conflict,
        # not a duplicate.
        unique: dict[str, MachineConfig] = {}
        for config in configs:
            existing = unique.get(config.name)
            if existing is None:
                unique[config.name] = config
            elif existing != config:
                raise ConfigSpecError(
                    f"specs resolve to conflicting configs both named "
                    f"{config.name!r}"
                )
        return list(unique.values())


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated spec list, keeping overrides attached.

    A fragment containing ``=`` but no ``?`` cannot start a new spec, so
    it belongs to the previous spec's override list — opening it if the
    previous spec has none yet::

        nosq?a=1,b=2,conventional  ->  ['nosq?a=1,b=2', 'conventional']
        nosq@256,rob_size=96       ->  ['nosq@256?rob_size=96']
    """
    specs: list[str] = []
    for fragment in text.split(","):
        if specs and "=" in fragment and "?" not in fragment:
            specs[-1] += ("," if "?" in specs[-1] else "?") + fragment
        elif fragment.strip():
            specs.append(fragment.strip())
    return specs


# --------------------------------------------------------------------- #
# The default registry: the paper's presets and set names.
# --------------------------------------------------------------------- #

REGISTRY = ConfigRegistry()

REGISTRY.register(
    "conventional",
    lambda window: MachineConfig.conventional(window=window),
    description="associative SQ + StoreSets scheduling (Figure 2 bar 1)",
    aliases=("sq-storesets",),
)
REGISTRY.register(
    "conventional-perfect",
    lambda window: MachineConfig.conventional(
        window=window, perfect_scheduling=True
    ),
    description="associative SQ + perfect scheduling "
                "(the normalization baseline)",
    aliases=("sq-perfect",),
)
REGISTRY.register(
    "conventional-smb",
    lambda window: MachineConfig.conventional_smb(window=window),
    description="associative SQ + opportunistic SMB (Table 1 background)",
    aliases=("sq-smb",),
)
REGISTRY.register(
    "nosq",
    lambda window: MachineConfig.nosq(window=window),
    description="NoSQ with delay (Figure 2 bar 3, the paper's design)",
    aliases=("nosq-delay",),
)
REGISTRY.register(
    "nosq-nodelay",
    lambda window: MachineConfig.nosq(window=window, delay=False),
    description="NoSQ without delay (Figure 2 bar 2)",
)
REGISTRY.register(
    "nosq-perfect",
    lambda window: MachineConfig.nosq(window=window, perfect=True),
    description="idealized NoSQ: perfect bypassing prediction "
                "(Figure 2 bar 4)",
)

REGISTRY.register_set(
    "standard",
    ("conventional-perfect", "conventional", "nosq-nodelay", "nosq",
     "nosq-perfect"),
    description="the five-configuration sweep behind Table 5 / Figures 2-4",
)
REGISTRY.register_set(
    "table5",
    ("nosq-nodelay", "nosq"),
    description="the two NoSQ variants Table 5 measures",
)
REGISTRY.register_set(
    "figure4",
    ("conventional", "nosq"),
    description="baseline vs NoSQ-with-delay (Figure 4 cache bandwidth)",
)


# --------------------------------------------------------------------- #
# Module-level convenience API over the default registry.
# --------------------------------------------------------------------- #

def register_config(
    name: str,
    factory: ConfigFactory | MachineConfig,
    description: str = "",
    aliases: Iterable[str] = (),
    replace: bool = False,
) -> ConfigPreset:
    """Register a preset with the default registry (see
    :meth:`ConfigRegistry.register`)."""
    return REGISTRY.register(name, factory, description, aliases, replace)


def unregister_config(name: str) -> None:
    REGISTRY.unregister(name)


def list_configs() -> dict[str, ConfigPreset]:
    """All registered presets by canonical name."""
    return REGISTRY.presets()


def list_config_sets() -> dict[str, tuple[str, ...]]:
    """All registered config sets (name -> member specs)."""
    return REGISTRY.sets()


def resolve_config(spec: str | MachineConfig, window: int = 128) -> MachineConfig:
    """Resolve one spec string (or pass a config through)."""
    return REGISTRY.resolve(spec, window) if isinstance(spec, str) else spec


def resolve_configs(
    specs: str | Iterable[str | MachineConfig], window: int = 128
) -> list[MachineConfig]:
    """Resolve a spec list/globs/sets to configs (see
    :meth:`ConfigRegistry.resolve_many`)."""
    return REGISTRY.resolve_many(specs, window)


def config_set(name: str, window: int = 128) -> list[MachineConfig]:
    """Build the members of a registered config set."""
    sets = REGISTRY.sets()
    if name not in sets:
        raise ConfigSpecError(
            f"unknown config set {name!r} (known: {', '.join(sorted(sets))})"
            f"{_suggest(name, sets)}"
        )
    return [REGISTRY.resolve(member, window) for member in sets[name]]


# --------------------------------------------------------------------- #
# Serialization: dict / JSON / TOML round trips and stable hashing.
# --------------------------------------------------------------------- #

def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Canonical JSON-compatible dict (codec layer; default-valued
    component selectors omitted for cache-key stability)."""
    from repro.experiments.codec import config_to_dict as _to_dict

    return _to_dict(config)


def config_from_dict(data: dict[str, Any]) -> MachineConfig:
    from repro.experiments.codec import config_from_dict as _from_dict

    return _from_dict(data)


def config_to_json(config: MachineConfig, indent: int | None = 2) -> str:
    import json

    return json.dumps(config_to_dict(config), sort_keys=True, indent=indent)


def config_from_json(text: str) -> MachineConfig:
    import json

    return config_from_dict(json.loads(text))


def config_hash(config: MachineConfig) -> str:
    """Stable SHA-256 of the canonical serialized config.

    This is exactly the config contribution to campaign cache keys
    (:func:`repro.experiments.cache.job_key`): equal configs hash equal,
    any field change (component selectors included) changes the hash.
    """
    import hashlib

    from repro.experiments.codec import canonical_json

    payload = canonical_json(config_to_dict(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _toml_scalar(value: Any) -> str:
    import json

    if value is None:
        return '"none"'  # TOML has no null; the codec coerces it back
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(str(value))


def config_to_toml(config: MachineConfig) -> str:
    """Render *config* as TOML (scalars first, one table per section)."""
    data = config_to_dict(config)
    lines: list[str] = []
    sections: list[tuple[str, dict[str, Any]]] = []
    for key, value in data.items():
        if isinstance(value, dict):
            sections.append((key, value))
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in sections:
        lines.append("")
        lines.append(f"[{key}]")
        lines.extend(f"{k} = {_toml_scalar(v)}" for k, v in value.items())
    return "\n".join(lines) + "\n"


def config_from_toml(text: str) -> MachineConfig:
    """Parse :func:`config_to_toml` output back to a config."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10
        raise ConfigSpecError(
            "TOML config parsing needs the stdlib tomllib (Python "
            "3.11+); on 3.10 use config_from_json/config_from_dict"
        ) from None

    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigSpecError(f"invalid config TOML: {exc}") from None

    def optional(hint: Any) -> bool:
        origin = typing.get_origin(hint)
        return (origin is Union or origin is types.UnionType) and \
            type(None) in typing.get_args(hint)

    def restore_none(cls: type, section: dict[str, Any]) -> dict[str, Any]:
        """Map the ``"none"`` sentinel back to null — but only on fields
        whose declared type is Optional, so a *string* field legitimately
        holding ``"none"`` survives the round trip."""
        hints = _type_hints(cls)
        restored: dict[str, Any] = {}
        for key, value in section.items():
            if isinstance(value, dict) and key in _SECTIONS:
                restored[key] = restore_none(_SECTIONS[key], value)
            elif value == "none" and optional(hints.get(key)):
                restored[key] = None
            else:
                restored[key] = value
        return restored

    return config_from_dict(restore_none(MachineConfig, data))
