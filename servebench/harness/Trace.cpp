//===- servebench/harness/Trace.cpp - Traced per-layer replay -------------===//
///
/// \file
/// The traced run: the workload's request stream replayed one request at
/// a time through the layers' public functions, in the order
/// RtcgService::process calls them, with a span (name, start, end,
/// parent, request id) recorded around each call from outside the
/// program. Spans stay in memory until the replay ends; a layer's self
/// time is its span minus the part its children cover, and the request
/// span's own self time is the replay's unattributed glue.
///
/// The replay owns a universe shaped like one service worker's: a Heap, a
/// Machine with a vm::Profile attached, per-program generating
/// extensions, a SpecCache with the service's budget, and (when the
/// workload has one) its own DiskStore. Tiering is done here by hand —
/// memory probe, then DiskStore::load and promotion; on generation,
/// SpecCache::insert then DiskStore::put — so every tier gets its own
/// span. The cache starts with the entries a set-up service holds after
/// pre-warm and quiesce, re-specialized variants included.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compiler/Compilators.h"
#include "compiler/Peephole.h"
#include "frontend/Pipeline.h"
#include "pgg/DiskStore.h"
#include "pgg/Pgg.h"
#include "sexp/Reader.h"
#include "support/LargeStack.h"
#include "vm/Convert.h"
#include "vm/Jit.h"
#include "vm/Verify.h"

#include <filesystem>
#include <optional>
#include <unistd.h>

using namespace pecomp;
using namespace pecomp::pgg;

namespace servebench {
namespace {

/// In-memory span log. Start/End are nanoseconds since the tracer began.
class Tracer {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;
  struct Span {
    const char *Name;
    uint32_t Request;
    uint32_t Parent;
    int64_t Start = 0, End = 0;
  };

  uint32_t begin(const char *Name, uint32_t Request, uint32_t Parent) {
    Spans.push_back({Name, Request, Parent, now(), 0});
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  void end(uint32_t Id) { Spans[Id].End = now(); }

  /// Runs \p F inside a span named \p Name, child of the open request
  /// (just runs it when layer spans are off).
  template <typename F> auto operator()(const char *Name, F &&Fn) {
    if (!Layers)
      return Fn();
    uint32_t Id = begin(Name, Request, Root);
    struct Closer {
      Tracer &T;
      uint32_t Id;
      ~Closer() { T.end(Id); }
    } C{*this, Id};
    return Fn();
  }

  void openRequest(uint32_t R) {
    Request = R;
    Root = begin("request", R, NoParent);
  }
  void closeRequest() { end(Root); }

  std::vector<Span> Spans;
  bool Layers = true; ///< record layer spans, not only request spans

private:
  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }
  Clock::time_point Epoch = Clock::now();
  uint32_t Request = 0, Root = NoParent;
};

/// Summed self time (ms) per span name for every request.
std::vector<std::map<std::string, double>>
selfTimes(const std::vector<Tracer::Span> &Spans, size_t Requests) {
  std::vector<double> Covered(Spans.size(), 0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent != Tracer::NoParent)
      Covered[S.Parent] += static_cast<double>(S.End - S.Start);
  std::vector<std::map<std::string, double>> Out(Requests);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    double Self = static_cast<double>(S.End - S.Start) - Covered[I];
    if (S.Request < Requests)
      Out[S.Request][S.Name] += Self / 1e6;
  }
  return Out;
}

void predecode(const vm::CodeObject *C) {
  C->decoded();
  for (const vm::CodeObject *Child : C->children())
    predecode(Child);
}

void prejit(const vm::CodeObject *C) {
  C->jit();
  for (const vm::CodeObject *Child : C->children())
    prejit(Child);
}

/// An installed re-specialized variant, as the service's guard sees it.
struct Variant {
  SpecKey ExtKey;
  std::string GuardText; ///< expected rendering of run argument 0
};

class Replay {
public:
  /// An untraced replay records only request spans and runs without the
  /// profile, so the traced/untraced ratio prices everything tracing adds.
  Replay(const Workload &W, const Sizing &Sz, const std::string &StoreDir,
         bool Traced)
      : W(W), Cache(Sz.CacheBytes, 8), Gens(W.Programs.size()),
        Variants(W.Programs.size()) {
    T.Layers = Traced;
    if (Traced)
      M.setProfile(&Prof);
    if (W.Store) {
      Result<std::shared_ptr<DiskStore>> S = DiskStore::open(StoreDir);
      if (S)
        Store = *S;
      else
        fail("store: " + S.error().render());
    }
  }

  /// Times the front end and the BTA of every program on their own, the
  /// split-out view of what GeneratingExtension::create does per program.
  void splitCogen() {
    for (const ProgramSpec &P : W.Programs) {
      Arena A;
      ExprFactory Exprs(A);
      DatumFactory Datums(A);
      Clock::time_point T0 = Clock::now();
      Result<Program> Src =
          frontendProgram(P.Template.ProgramText, Exprs, Datums);
      Clock::time_point T1 = Clock::now();
      if (!Src) {
        fail("front end: " + Src.error().render());
        continue;
      }
      Result<std::vector<bta::BT>> Mask = parseDivision(P.Template.Division);
      Result<bta::AnnProgram> Ann = bta::analyze(
          *Src, Symbol::intern(P.Template.Entry), *Mask, A, PggOptions().Bta);
      Clock::time_point T2 = Clock::now();
      if (!Ann)
        fail("bta: " + Ann.error().render());
      FrontendMs.push_back(msBetween(T0, T1));
      BtaMs.push_back(msBetween(T1, T2));
    }
  }

  /// Copies the warm entries and installed variants out of a set-up
  /// service's cache.
  void seedFrom(SpecCache &From) {
    Arena A;
    DatumFactory Datums(A);
    vm::RootScope Roots(Heap);
    auto Key = [&](const RequestSpec &Q, bool Extended) {
      const RtcgRequest &T = W.Programs[Q.Program].Template;
      std::vector<std::optional<vm::Value>> Args;
      std::string Division = T.Division;
      size_t Run = 0;
      for (size_t I = 0; I != Q.Net.SpecArgs.size(); ++I) {
        const std::string *Text = &Q.Net.SpecArgs[I];
        if (*Text == "_") {
          if (!Extended) {
            Args.emplace_back(std::nullopt);
            continue;
          }
          Text = &Q.Net.RunArgs[Run++];
          Division[I] = 'S';
        }
        Result<const Datum *> D = readDatum(*Text, Datums);
        Args.emplace_back(Roots.protect(vm::valueFromDatum(Heap, *D)));
      }
      return makeSpecKey(
          fingerprintProgram(T.ProgramText, T.Entry, Division), Args);
    };
    auto Copy = [&](const SpecKey &K) {
      std::shared_ptr<const CachedSpecialization> E = From.lookup(K);
      if (E)
        Cache.insert(K, E);
      return E != nullptr;
    };
    for (const auto &Warm : W.Warm)
      for (const Unit &U : Warm)
        Copy(Key(W.Pool[U.Request], false));
    if (!W.Respec)
      return;
    for (const RequestSpec &Q : W.Pool)
      if (!Variants[Q.Program] && Q.Net.RunArgs.size() == 1 &&
          Copy(Key(Q, true)))
        Variants[Q.Program] = Variant{Key(Q, true), Q.Net.RunArgs[0]};
  }

  /// Serves one request under the tracer.
  void serve(const RequestSpec &Q, uint32_t Id) {
    const RtcgRequest &Tpl = W.Programs[Q.Program].Template;
    std::vector<uint8_t> Frame = net::encodeRequest(0, Id, Q.Net);
    std::span<const uint8_t> Payload(Frame.data() + net::FrameHeaderBytes,
                                     Frame.size() - net::FrameHeaderBytes);
    T.openRequest(Id);
    {
      // Decode plus the template merge NetServer::handleFrame does.
      RtcgRequest Req;
      std::string DecodeErr = T("net.decode", [&] {
        Result<net::NetRequest> NR = net::decodeRequestPayload(Payload);
        if (!NR)
          return NR.error().render();
        Req = Tpl;
        if (!NR->Division.empty())
          Req.Division = NR->Division;
        Req.SpecArgs = std::move(NR->SpecArgs);
        Req.RunArgs = std::move(NR->RunArgs);
        return std::string();
      });
      if (!DecodeErr.empty())
        return done(Error(DecodeErr));

      Arena RequestArena;
      DatumFactory Datums(RequestArena);
      vm::RootScope Roots(Heap);
      std::vector<std::optional<vm::Value>> SpecArgs;
      std::vector<vm::Value> RunArgs;
      std::string ParseErr = T("sexp.parse", [&] {
        auto Parse = [&](const std::string &Text) -> std::optional<vm::Value> {
          Result<const Datum *> D = readDatum(Text, Datums);
          if (!D)
            return std::nullopt;
          return Roots.protect(vm::valueFromDatum(Heap, *D));
        };
        for (const std::string &A : Req.SpecArgs) {
          if (A == "_") {
            SpecArgs.emplace_back(std::nullopt);
            continue;
          }
          std::optional<vm::Value> V = Parse(A);
          if (!V)
            return "unreadable static argument " + A;
          SpecArgs.emplace_back(*V);
        }
        for (const std::string &A : Req.RunArgs) {
          std::optional<vm::Value> V = Parse(A);
          if (!V)
            return "unreadable run argument " + A;
          RunArgs.push_back(*V);
        }
        return std::string();
      });
      if (!ParseErr.empty())
        return done(Error(ParseErr));

      SpecKey Key = T("cache.key", [&] {
        return makeSpecKey(
            tenantFingerprint(fingerprintProgram(Req.ProgramText, Req.Entry,
                                                 Req.Division),
                              Req.Tenant),
            SpecArgs);
      });

      // The request's code universe, as in the service: a fresh store and
      // global table, torn down with the request (vm.release).
      std::optional<vm::CodeStore> CodeStore(std::in_place, Heap);
      vm::GlobalTable Globals;
      struct GlobalsReset {
        vm::Machine &M;
        ~GlobalsReset() { M.resetGlobals(); }
      } ResetG{M};

      compiler::CompiledProgram CP;
      Symbol Entry;
      const std::optional<Variant> &V = Variants[Q.Program];
      std::shared_ptr<const CachedSpecialization> Hit;
      if (V && !RunArgs.empty() && Req.RunArgs[0] == V->GuardText) {
        Hit = T("cache.probe", [&] { return Cache.lookup(V->ExtKey); });
        if (Hit)
          RunArgs.erase(RunArgs.begin()); // the guarded slot is consumed
      }
      if (!Hit) {
        Hit = T("cache.probe", [&] { return Cache.lookup(Key); });
        if (!Hit && Store) {
          Result<std::shared_ptr<const CachedSpecialization>> L =
              T("store.load", [&] { return Store->load(Key); });
          if (L) {
            Hit = *L;
            T("cache.insert", [&] { Cache.insert(Key, Hit); });
          }
        }
      }
      if (Hit) {
        CP = T("compiler.instantiate",
               [&] { return Hit->Residual->instantiate(*CodeStore, Globals); });
        Entry = Hit->Entry;
      } else {
        std::unique_ptr<GeneratingExtension> &Gen = Gens[Q.Program];
        if (!Gen) {
          Result<std::unique_ptr<GeneratingExtension>> G = T("pgg.cogen", [&] {
            return GeneratingExtension::create(Heap, Req.ProgramText,
                                               Req.Entry, Req.Division);
          });
          if (!G)
            return done(G.takeError());
          Gen = std::move(*G);
          ++Cogens;
        }
        compiler::Compilators Comp(*CodeStore, Globals);
        Result<ResidualObject> Obj = T(
            "spec.generate", [&] { return Gen->generateObject(Comp, SpecArgs); });
        if (!Obj)
          return done(Obj.takeError());
        ResidualFunctions.push_back(
            static_cast<double>(Obj->Stats.ResidualFunctions));
        Entry = Obj->Entry;
        CP = std::move(Obj->Residual);
        compiler::PeepholeStats PS = T(
            "compiler.peephole", [&] { return compiler::peepholeProgram(CP); });
        PeepholeRewrites.push_back(static_cast<double>(PS.rewrites()));
        Result<std::shared_ptr<const compiler::PortableProgram>> Port =
            T("compiler.capture", [&] {
              return compiler::PortableProgram::capture(CP, Globals);
            });
        if (Port) {
          auto Cached = std::make_shared<CachedSpecialization>();
          Cached->Residual = *Port;
          Cached->Entry = Entry;
          Cached->Stats = Obj->Stats;
          T("cache.insert", [&] { Cache.insert(Key, Cached); });
          if (Store)
            T("store.put", [&] { return Store->put(Key, *Cached); });
        }
      }

      std::string VerifyErr = T("vm.verify", [&] {
        for (const auto &[Name, Code] : CP.Defs)
          if (auto E = vm::verifyCode(Code, 0, M.limits().MaxStackDepth))
            return "refusing to link '" + Name.str() + "': " + *E;
        return std::string();
      });
      if (!VerifyErr.empty())
        return done(Error(VerifyErr));
      T("vm.decode", [&] {
        for (const auto &[Name, Code] : CP.Defs)
          predecode(Code);
      });
      if (compiler::LinkOptions().NativeJit && vm::jitAvailable())
        T("vm.jit", [&] {
          for (const auto &[Name, Code] : CP.Defs)
            prejit(Code);
        });
      T("compiler.link", [&] { compiler::linkProgram(M, Globals, CP); });

      Prof.resetDispatch();
      Result<vm::Value> R = T("vm.run", [&] {
        return compiler::callGlobal(M, Globals, Entry, RunArgs);
      });
      Insns += Prof.instructions();
      NativeFallbacks += Prof.JitFallbacks;
      if (!R)
        return done(R.takeError());
      RtcgResponse Resp;
      Resp.Ok = true;
      Resp.CacheHit = Hit != nullptr;
      Resp.Value = T("sexp.render", [&] { return vm::valueToString(*R); });
      T("net.encode", [&] { return net::encodeResponse(0, Id, Resp); });
      T("vm.release", [&] {
        M.resetGlobals();
        CP.Defs.clear();
        CodeStore.reset();
      });
      if (Resp.Value != Q.Expected)
        return done(Error("wrong value '" + Resp.Value + "', expected '" +
                             Q.Expected + "'"));
    }
    done(std::nullopt);
  }

  void fail(const std::string &Why) {
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = Why;
  }

  const Workload &W;
  vm::Heap Heap;
  vm::Machine M{Heap};
  vm::Profile Prof;
  SpecCache Cache;
  std::shared_ptr<DiskStore> Store;
  std::vector<std::unique_ptr<GeneratingExtension>> Gens;
  std::vector<std::optional<Variant>> Variants;
  Tracer T;

  std::vector<double> FrontendMs, BtaMs, ResidualFunctions, PeepholeRewrites;
  uint64_t Insns = 0, NativeFallbacks = 0, Cogens = 0;
  size_t Failed = 0;
  std::string FirstFailure;

private:
  void done(std::optional<Error> E) {
    T.closeRequest();
    if (E)
      fail(E->render());
  }
};

} // namespace

LayerReport tracedReplay(const Workload &W, const Sizing &Sz, Rig &Seeded,
                         const std::string &ScratchDir, size_t MaxUnits) {
  LayerReport Out;
  std::string StoreDir =
      ScratchDir + "/trace-store-" + std::to_string(::getpid());
  // Generation bounces to a large stack unless it already runs on one; the
  // service's workers do, so the replay does too.
  LargeStackThread Thread([&] {
    Replay R(W, Sz, StoreDir + "-traced", true),
        Base(W, Sz, StoreDir + "-untraced", false);
    R.splitCogen();
    R.seedFrom(Seeded.Service->cache());
    Base.seedFrom(Seeded.Service->cache());
    size_t Longest = 0;
    for (const auto &S : W.Streams)
      Longest = std::max(Longest, std::min(MaxUnits, S.size()));
    uint32_t Id = 0;
    for (size_t Pos = 0; Pos != Longest; ++Pos)
      for (const auto &S : W.Streams) {
        if (Pos >= std::min(MaxUnits, S.size()))
          continue;
        for (int Twice = 0; Twice != (S[Pos].Dup ? 2 : 1); ++Twice) {
          Base.serve(W.Pool[S[Pos].Request], Id);
          R.serve(W.Pool[S[Pos].Request], Id++);
        }
      }

    std::vector<std::map<std::string, double>> Self = selfTimes(R.T.Spans, Id);
    auto RequestMs = [](const Tracer &T) {
      std::vector<double> Ms;
      for (const Tracer::Span &S : T.Spans)
        if (S.Parent == Tracer::NoParent)
          Ms.push_back(static_cast<double>(S.End - S.Start) / 1e6);
      return Ms;
    };
    std::map<std::string, std::vector<double>> PerLayer;
    for (const auto &Req : Self)
      for (const auto &[Name, Ms] : Req) {
        PerLayer[Name].push_back(Ms);
        Out.SpanSelfMs[Name] += Ms;
      }

    // Median self time over the requests that entered each layer.
    std::map<std::string, double> &M = Out.Metrics;
    static const std::pair<const char *, const char *> Timed[] = {
        {"vm.verify", "_us"},         {"vm.decode", "_us"},
        {"vm.jit", "_us"},            {"compiler.instantiate", "_us"},
        {"compiler.link", "_us"},     {"vm.release", "_us"},
        {"vm.run", "_us"},            {"spec.generate", "_ms"},
        {"compiler.peephole", "_us"}, {"compiler.capture", "_us"},
        {"cache.key", "_us"},         {"cache.probe", "_us"},
        {"cache.insert", "_us"},      {"store.load", "_ms"},
        {"store.put", "_ms"},         {"net.decode", "_us"},
        {"net.encode", "_us"},        {"sexp.parse", "_us"},
        {"sexp.render", "_us"}};
    for (const auto &[Span, Unit] : Timed) {
      auto It = PerLayer.find(Span);
      double Scale = std::string_view(Unit) == "_us" ? 1e3 : 1;
      M[std::string(Span) + Unit] =
          It == PerLayer.end() ? 0.0 : median(It->second) * Scale;
    }
    M["trace.unattributed_ms"] = median(PerLayer["request"]);
    M["frontend.ms"] = median(R.FrontendMs);
    M["bta.ms"] = median(R.BtaMs);
    M["spec.residual_functions"] = median(R.ResidualFunctions);
    M["compiler.peephole_rewrites"] = median(R.PeepholeRewrites);

    double N = Id ? static_cast<double>(Id) : 1;
    M["vm.insns_per_req"] = static_cast<double>(R.Insns) / N;
    M["vm.native_fallbacks_per_req"] =
        static_cast<double>(R.NativeFallbacks) / N;
    M["pgg.cogen_per_1k"] = static_cast<double>(R.Cogens) * 1e3 / N;

    CacheStats CS = R.Cache.stats();
    M["cache.hit_ratio"] =
        CS.Lookups ? static_cast<double>(CS.Hits) / CS.Lookups : 0;
    M["cache.evictions_per_1k"] = static_cast<double>(CS.Evictions) * 1e3 / N;
    M["cache.bytes"] = static_cast<double>(CS.Bytes);
    if (R.Store) {
      DiskStoreStats DS = R.Store->stats();
      uint64_t Loads = DS.Hits + DS.Misses + DS.Rejects;
      M["store.hit_ratio"] =
          Loads ? static_cast<double>(DS.Hits) / Loads : 0;
      M["store.rejects_per_1k"] = static_cast<double>(DS.Rejects) * 1e3 / N;
    } else {
      M["store.hit_ratio"] = 0;
      M["store.rejects_per_1k"] = 0;
    }

    Out.Requests = Id;
    Out.Failed = R.Failed + Base.Failed;
    Out.FirstFailure = R.FirstFailure.empty() ? Base.FirstFailure : R.FirstFailure;
    Out.TracedP50Ms = median(RequestMs(R.T));
    Out.UntracedP50Ms = median(RequestMs(Base.T));
    Out.Spans = R.T.Spans.size();
  });
  Thread.join();
  std::error_code Ec;
  std::filesystem::remove_all(StoreDir + "-traced", Ec);
  std::filesystem::remove_all(StoreDir + "-untraced", Ec);
  return Out;
}

} // namespace servebench
