/**
 * @file
 * Backend traits table and the stateless built-in backends.
 */

#include "walker/backend.hh"

#include "base/logging.hh"

namespace ap
{

const BackendTraits &
backendTraits(VirtMode m)
{
    //                               mode              vmm   smgr  agile shsp  seg
    static const BackendTraits native{VirtMode::Native, false, false, false, false, false};
    static const BackendTraits nested{VirtMode::Nested, true, false, false, false, false};
    static const BackendTraits shadow{VirtMode::Shadow, true, true, false, false, false};
    static const BackendTraits agile{VirtMode::Agile, true, true, true, false, false};
    static const BackendTraits shsp{VirtMode::Shsp, true, true, false, true, false};
    static const BackendTraits range{VirtMode::Range, true, false, false, false, true};
    switch (m) {
      case VirtMode::Native:
        return native;
      case VirtMode::Nested:
        return nested;
      case VirtMode::Shadow:
        return shadow;
      case VirtMode::Agile:
        return agile;
      case VirtMode::Shsp:
        return shsp;
      case VirtMode::Range:
        return range;
    }
    ap_panic("unknown VirtMode ", static_cast<unsigned>(m));
}

namespace
{

/** Unvirtualized baseline: the 1D walk of Fig. 2a. */
class NativeBackend : public TranslationBackend
{
  public:
    NativeBackend() : TranslationBackend(VirtMode::Native) {}

    void
    serviceWalk(Walker &w, unsigned, const TranslationContext &ctx,
                Addr va, bool is_write, WalkResult &r) override
    {
        w.nativeWalk(ctx, va, is_write, r);
    }
};

/** Hardware nested paging: the 2D walk of Fig. 2b. */
class NestedBackend : public TranslationBackend
{
  public:
    NestedBackend() : TranslationBackend(VirtMode::Nested) {}

    void
    serviceWalk(Walker &w, unsigned, const TranslationContext &ctx,
                Addr va, bool is_write, WalkResult &r) override
    {
        w.nestedWalk(ctx, va, is_write, r);
    }
};

/**
 * The shadow family (shadow / agile / SHSP): Fig. 4's walk with
 * per-entry switching, degenerating to the nested walk when the
 * process runs fully nested (sptr == gptr).
 */
class ShadowFamilyBackend : public TranslationBackend
{
  public:
    explicit ShadowFamilyBackend(VirtMode m) : TranslationBackend(m) {}

    void
    serviceWalk(Walker &w, unsigned, const TranslationContext &ctx,
                Addr va, bool is_write, WalkResult &r) override
    {
        // Fig. 4: "if sptr == gptr then return nested_walk(...)".
        if (ctx.fullNested)
            w.nestedWalk(ctx, va, is_write, r);
        else
            w.agileWalk(ctx, va, is_write, r);
    }
};

} // namespace

TranslationBackend &
builtinBackend(VirtMode m)
{
    static NativeBackend native;
    static NestedBackend nested;
    static ShadowFamilyBackend shadow{VirtMode::Shadow};
    static ShadowFamilyBackend agile{VirtMode::Agile};
    static ShadowFamilyBackend shsp{VirtMode::Shsp};
    switch (m) {
      case VirtMode::Native:
        return native;
      case VirtMode::Nested:
        return nested;
      case VirtMode::Shadow:
        return shadow;
      case VirtMode::Agile:
        return agile;
      case VirtMode::Shsp:
        return shsp;
      case VirtMode::Range:
        // The range backend carries per-vCPU segment state; it must be
        // created per machine through the registry.
        ap_panic("range translation has no stateless built-in backend");
    }
    ap_panic("unknown VirtMode ", static_cast<unsigned>(m));
}

} // namespace ap
