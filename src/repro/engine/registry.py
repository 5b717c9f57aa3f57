"""String-spec registry of retrieval methods.

Every retrieval method in the library registers itself under a short
lower-case name with the :func:`register_retriever` class decorator, and
:func:`create_retriever` builds instances from ``"name"`` or
``"name:variant"`` spec strings::

    create_retriever("lemp:LI", phi=4)   # LEMP with the INCR/LENGTH mix
    create_retriever("naive")            # full-product baseline
    create_retriever("tree:ball")        # single-tree search over a ball tree
    create_retriever("ta:heap")          # threshold algorithm, heap traversal

The variant (the part after ``:``) is routed to one designated constructor
keyword (``algorithm`` for LEMP, ``tree_type`` for the trees, ``strategy``
for TA), so a spec string is always equivalent to a plain constructor call.
The registry replaces the per-call-site construction lambdas that used to
live in ``eval.harness`` and the CLI; the paper names used there
(``"LEMP-LI"``, ``"Naive"``, ``"D-Tree"``, …) remain accepted as aliases.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.exceptions import UnknownAlgorithmError

#: name -> _Registration for every registered retrieval method.
_REGISTRY: dict[str, "_Registration"] = {}

#: alias (lower-case) -> canonical spec string.
_ALIASES: dict[str, str] = {}

_BUILTINS_LOADED = False


@dataclass
class _Registration:
    """One registered retrieval method."""

    name: str
    cls: type
    variant_kw: str | None = None
    variants: tuple[str, ...] = ()
    default_variant: str | None = None
    exact: bool = True
    accepts_seed: bool = field(default=False)
    #: Lazily probed capability flags, keyed by concrete spec string.
    _capabilities: dict = field(default_factory=dict, repr=False)

    def specs(self) -> list[str]:
        """All concrete spec strings this registration answers to."""
        if not self.variants:
            return [self.name]
        return [f"{self.name}:{variant}" for variant in self.variants]


def register_retriever(
    name: str,
    *,
    variant_kw: str | None = None,
    variants: tuple[str, ...] = (),
    default_variant: str | None = None,
    exact: bool = True,
    aliases: tuple[str, ...] = (),
):
    """Class decorator adding a retriever class to the spec registry.

    Parameters
    ----------
    name:
        Registry name (the part of the spec before ``:``), lower-case.
    variant_kw:
        Constructor keyword that the spec variant (after ``:``) is passed to.
    variants:
        Recognised variant values (case preserved as given; matching is
        case-insensitive).
    default_variant:
        Variant used when the spec names no variant.
    exact:
        Whether the method returns exact results (False for the approximate
        BLSH mix and the clustered extension); used by equivalence tests.
    aliases:
        Additional full spec strings mapped to this registration, e.g. the
        paper names ``"Naive"`` or ``"D-Tree"``.
    """

    def decorator(cls):
        """Register ``cls`` and return it unchanged."""
        parameters = inspect.signature(cls.__init__).parameters
        registration = _Registration(
            name=name.lower(),
            cls=cls,
            variant_kw=variant_kw,
            variants=tuple(variants),
            default_variant=default_variant,
            exact=exact,
            accepts_seed="seed" in parameters,
        )
        _REGISTRY[registration.name] = registration
        for alias in aliases:
            _ALIASES[alias.lower()] = (
                f"{registration.name}:{default_variant}" if default_variant else registration.name
            )
        cls._registry_entry = registration
        return cls

    return decorator


def _ensure_builtins_loaded() -> None:
    """Import the modules whose classes self-register (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.baselines  # noqa: F401  (registers Naive, TA, trees)
    import repro.core.lemp  # noqa: F401  (registers LEMP)
    import repro.extensions.clustered  # noqa: F401  (registers the clustered extension)

    _BUILTINS_LOADED = True


def split_spec(canonical: str) -> tuple[str, str]:
    """Split a *canonical* spec into ``(name, variant)`` parts.

    A missing variant comes back as an empty string.  Use on the output of
    :func:`normalize_spec`; raw user input should be normalised first.
    """
    name, _, variant = canonical.partition(":")
    return name, variant


def normalize_spec(spec: str) -> str:
    """Return the canonical ``name[:variant]`` form of a spec string.

    Accepts registry specs in any case, registered aliases (paper names like
    ``"Naive"``), and the legacy ``"LEMP-X"`` spelling.
    """
    _ensure_builtins_loaded()
    text = str(spec).strip()
    lowered = text.lower()
    if lowered in _ALIASES:
        return _ALIASES[lowered]
    if lowered.startswith("lemp-"):
        # Legacy paper spelling used by the original harness and CLI.
        return normalize_spec("lemp:" + text[5:])
    name, _, variant = lowered.partition(":")
    registration = _REGISTRY.get(name)
    if registration is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownAlgorithmError(
            f"unknown retriever spec {spec!r}; registered names: {known}"
        )
    if not variant:
        if registration.default_variant is None:
            return registration.name
        return f"{registration.name}:{registration.default_variant}"
    if registration.variant_kw is None:
        raise UnknownAlgorithmError(
            f"retriever {registration.name!r} takes no variant, got {spec!r}"
        )
    matches = [v for v in registration.variants if v.lower() == variant]
    if not matches and registration.variants:
        raise UnknownAlgorithmError(
            f"unknown variant {variant!r} for retriever {registration.name!r}; "
            f"expected one of {registration.variants}"
        )
    return f"{registration.name}:{matches[0] if matches else variant}"


def create_retriever(spec: str, seed: int = 0, **kwargs):
    """Build a retriever instance from a spec string.

    ``seed`` is forwarded only to constructors that accept it, so callers can
    pass a uniform seed for reproducibility without inspecting each method.
    All other keyword arguments go to the constructor verbatim (an unknown
    keyword raises ``TypeError`` as a plain constructor call would).
    """
    canonical = normalize_spec(spec)
    name, variant = split_spec(canonical)
    registration = _REGISTRY[name]
    if variant and registration.variant_kw:
        kwargs.setdefault(registration.variant_kw, variant)
    if registration.accepts_seed:
        kwargs.setdefault("seed", seed)
    return registration.cls(**kwargs)


def registration_for(instance_or_class) -> _Registration | None:
    """Registry entry of a retriever instance/class, or ``None``."""
    _ensure_builtins_loaded()
    cls = instance_or_class if inspect.isclass(instance_or_class) else type(instance_or_class)
    return getattr(cls, "_registry_entry", None)


def spec_for_instance(retriever) -> str | None:
    """Derive the canonical spec string of a retriever instance, if registered."""
    registration = registration_for(retriever)
    if registration is None:
        return None
    if registration.variant_kw is None:
        return registration.name
    variant = getattr(retriever, registration.variant_kw, registration.default_variant)
    return f"{registration.name}:{variant}" if variant else registration.name


def registered_names() -> tuple[str, ...]:
    """Sorted names of all registered retrieval methods."""
    _ensure_builtins_loaded()
    return tuple(sorted(_REGISTRY))


def available_specs() -> tuple[str, ...]:
    """All concrete spec strings (every variant of every registered method)."""
    _ensure_builtins_loaded()
    specs: list[str] = []
    for name in sorted(_REGISTRY):
        specs.extend(_REGISTRY[name].specs())
    return tuple(specs)


def spec_capabilities(spec: str) -> dict:
    """Capability flags of the method behind ``spec``, as a plain dict.

    The flags are what the :class:`~repro.engine.planner.ExecutionPlanner`
    consults on the live retriever instance, surfaced here so callers (the
    CLI's ``explain``, monitoring dashboards) can inspect a method without
    building an index:

    * ``exact`` — returns exactly the requested entries of ``Q·Pᵀ``
      (:func:`spec_is_exact`);
    * ``parallel_queries`` — query chunks may run concurrently on
      :meth:`~repro.core.api.Retriever.worker_view` clones;
    * ``updates`` — ``partial_fit`` / ``remove`` are implemented.

    Flags are probed once per concrete spec on a default-constructed,
    unfitted instance (capabilities are class-level contracts, not fitted
    state) and cached on the registration.
    """
    canonical = normalize_spec(spec)
    name, _ = split_spec(canonical)
    registration = _REGISTRY[name]
    if canonical not in registration._capabilities:
        instance = create_retriever(canonical)
        registration._capabilities[canonical] = {
            "exact": spec_is_exact(canonical),
            "parallel_queries": bool(getattr(instance, "supports_parallel_queries", False))
            and getattr(instance, "worker_view", None) is not None,
            "updates": bool(getattr(instance, "supports_updates", False)),
        }
    return dict(registration._capabilities[canonical])


def spec_is_exact(spec: str) -> bool:
    """Whether the method behind ``spec`` returns exact (non-approximate) results.

    LEMP-BLSH and the clustered extension are approximate; everything else is
    exact.  For LEMP the flag is refined per variant.
    """
    canonical = normalize_spec(spec)
    name, variant = split_spec(canonical)
    registration = _REGISTRY[name]
    if name == "lemp" and variant == "BLSH":
        return False
    return registration.exact
