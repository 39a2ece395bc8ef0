/**
 * @file
 * Pluggable translation backends.
 *
 * Historically every layer that cared how a process is translated
 * switched on VirtMode directly, which hardcoded the mode set in ~15
 * places. A TranslationBackend instead bundles the per-mode behavior
 * behind one interface:
 *
 *   - walk servicing (which walk state machine resolves a miss),
 *   - invalidation hooks (a CoherenceListener riding the domain),
 *   - snapshot state (saveState/restoreState of backend-private state),
 *   - stat registration (done by the backend's constructor).
 *
 * Structural questions ("does this mode need a VMM? a shadow table?")
 * are answered by the static BackendTraits table so construction-time
 * consumers (Machine, GuestOs, experiment sizing) need no backend
 * instance. The three classic families (native, nested, shadow/agile/
 * SHSP) are stateless and shared as singletons; range/segment
 * translation (core/range_backend.hh) keeps per-vCPU state, so each
 * Machine in Range mode builds its own.
 */

#ifndef AGILEPAGING_WALKER_BACKEND_HH
#define AGILEPAGING_WALKER_BACKEND_HH

#include "base/types.hh"
#include "walker/walker.hh"

namespace ap
{

class CoherenceListener;
class Serializer;
class Deserializer;

/**
 * Static per-mode structure: which subsystems a machine running this
 * backend must build. Pure data so it is usable before (and without)
 * any backend instance.
 */
struct BackendTraits
{
    VirtMode mode;
    /** Two-stage translation: the machine needs a VMM and a host page
     *  table (everything but the unvirtualized native baseline). */
    bool usesVmm;
    /** The VMM maintains shadow tables for this mode's processes
     *  (shadow, agile, SHSP). */
    bool usesShadowMgr;
    /** Agile per-entry switching policy engine. */
    bool usesAgilePolicy;
    /** SHSP whole-process switching controller. */
    bool usesShsp;
    /** Range backend's segment-register file. */
    bool usesSegments;
};

/** @return the traits row for @p m (every enumerator has one). */
const BackendTraits &backendTraits(VirtMode m);

/**
 * One memory-virtualization technique's behavior. Walkers dispatch
 * walk servicing through this; the machine wires coherence and
 * snapshot hooks at construction.
 */
class TranslationBackend
{
  public:
    explicit TranslationBackend(VirtMode mode)
        : traits_(backendTraits(mode)) {}
    virtual ~TranslationBackend() = default;

    VirtMode mode() const { return traits_.mode; }
    const BackendTraits &traits() const { return traits_; }

    /**
     * Resolve one TLB miss. Called by Walker::walk() with a freshly
     * reset @p r; must leave @p r either ok() with the effective
     * translation or carrying a fault for the OS/VMM to handle.
     * @p vcpu is the walking vCPU (backends with per-vCPU state).
     */
    virtual void serviceWalk(Walker &w, unsigned vcpu,
                             const TranslationContext &ctx, Addr va,
                             bool is_write, WalkResult &r) = 0;

    /** Invalidation observer to register with the CoherenceDomain, or
     *  nullptr when the backend caches nothing outside TLB/PWC. */
    virtual CoherenceListener *coherenceListener() { return nullptr; }

    /** Snapshot backend-private state. Stateless backends write and
     *  read nothing, preserving the pre-backend APSNAP byte layout. */
    virtual void saveState(Serializer &) const {}
    virtual void restoreState(Deserializer &) {}

  private:
    const BackendTraits &traits_;
};

/**
 * The shared stateless backend for a built-in mode: native, nested, or
 * the shadow family (shadow/agile/SHSP all dispatch Fig. 4's walk).
 * Walkers without an explicit backend (standalone walker tests) fall
 * back to these, reproducing the historical switch exactly. Panics for
 * modes that require per-machine state (Range).
 */
TranslationBackend &builtinBackend(VirtMode m);

} // namespace ap

#endif // AGILEPAGING_WALKER_BACKEND_HH
