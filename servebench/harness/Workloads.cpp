//===- servebench/harness/Workloads.cpp - Seeded workloads + oracle -------===//
///
/// \file
/// The three workloads, each generated from the run's seed alone:
///
///   hit_serve   the string matcher specialized on a few seed-drawn
///               patterns (all pre-warmed); every request is a memory hit
///               with a microsecond run, so the fixed per-request path
///               (wire, probe, instantiate, verify, decode, JIT, encode)
///               is nearly all of its time.
///   miss_churn  the IMP interpreter on its sample program with
///               seed-drawn constants: most requests are first sightings
///               of a key (generation, peephole, capture, insert, store
///               put), a share of first sightings is sent on two
///               connections at once, and a share of requests revisits
///               keys already evicted from the memory tier (store load).
///   skew_run    MIXWELL, LAZY and IMP on their sample programs with
///               dynamic inputs Zipf-skewed (s = 2) over 8 seed-drawn
///               values sized for millisecond generic runs, with online
///               re-specialization on: VM execution dominates, and the
///               guard hit/miss split exercises the online loop.
///
/// Expected values come from eval::Interp on the unspecialized program
/// with all of a request's arguments, computed in forked children before
/// any service thread exists, so the oracle's heap never shows in the
/// benchmark process's peak RSS.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "eval/Interp.h"
#include "frontend/Pipeline.h"
#include "sexp/Reader.h"
#include "support/LargeStack.h"
#include "vm/Convert.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <set>
#include <sys/wait.h>
#include <unistd.h>

using namespace pecomp;

namespace servebench {
namespace {

using Rng = std::mt19937_64;

size_t uniform(Rng &R, size_t Lo, size_t Hi) {
  return std::uniform_int_distribution<size_t>(Lo, Hi)(R);
}

ProgramSpec program(std::string Name, std::string_view Text, const char *Entry,
                    const char *Division) {
  ProgramSpec P;
  P.Name = std::move(Name);
  P.Template.ProgramText = std::string(Text);
  P.Template.Entry = Entry;
  P.Template.Division = Division;
  return P;
}

RequestSpec request(uint32_t Program, std::vector<std::string> Spec,
                    std::vector<std::string> Run) {
  RequestSpec R;
  R.Program = Program;
  R.Net.SpecArgs = std::move(Spec);
  R.Net.RunArgs = std::move(Run);
  return R;
}

std::string replaceOnce(std::string S, std::string_view From,
                        const std::string &To) {
  size_t At = S.find(From);
  if (At == std::string::npos)
    abort(); // the sample program changed shape; the template is stale
  return S.replace(At, From.size(), To);
}

std::string symbolList(const std::vector<char> &Syms) {
  std::string Out = "(";
  for (size_t I = 0; I != Syms.size(); ++I) {
    if (I)
      Out += ' ';
    Out += Syms[I];
  }
  return Out + ")";
}

// -- hit_serve ---------------------------------------------------------------

constexpr size_t HitPatterns = 8, HitPatternLen = 12, HitTextsPerPattern = 32,
                 HitTextLen = 40;
constexpr char HitAlphabet[] = "abcdef";

void buildHitServe(Rng &R, const Sizing &Sz, Workload &W) {
  W.Cyclic = true;
  W.Programs.push_back(
      program("matcher", workloads::matcherProgram(), "match", "SD"));
  auto Sym = [&] { return HitAlphabet[uniform(R, 0, 5)]; };
  for (size_t K = 0; K != HitPatterns; ++K) {
    std::vector<char> Pat(HitPatternLen);
    for (char &C : Pat)
      C = Sym();
    for (size_t T = 0; T != HitTextsPerPattern; ++T) {
      std::vector<char> Text(HitTextLen);
      for (char &C : Text)
        C = Sym();
      // Half the texts contain the pattern, so both outcomes are served.
      if (uniform(R, 0, 1)) {
        size_t At = uniform(R, 0, HitTextLen - HitPatternLen);
        std::copy(Pat.begin(), Pat.end(), Text.begin() + At);
      }
      W.Pool.push_back(request(0, {symbolList(Pat), "_"}, {symbolList(Text)}));
    }
  }
  W.Streams.resize(Sz.ClientThreads);
  W.Warm.resize(Sz.ClientThreads);
  for (size_t K = 0; K != HitPatterns; ++K)
    W.Warm[K % Sz.ClientThreads].push_back(
        {static_cast<uint32_t>(K * HitTextsPerPattern), false});
  for (auto &S : W.Streams)
    for (size_t I = 0; I != Sz.StreamLen; ++I)
      S.push_back({static_cast<uint32_t>(uniform(R, 0, W.Pool.size() - 1)),
                   false});
}

// -- miss_churn --------------------------------------------------------------

constexpr double ChurnRevisitShare = 0.2; ///< requests revisiting an old key
constexpr double ChurnDupShare = 0.1;     ///< first sightings sent twice
/// A revisit targets a key first seen at least this many of the thread's
/// keys ago, far beyond what the memory-tier budget retains.
constexpr size_t ChurnRevisitDistance = 64;
constexpr size_t ChurnWarmPerThread = 2;

void buildMissChurn(Rng &R, const Sizing &Sz, Workload &W) {
  W.Store = true;
  W.Programs.push_back(
      program("imp", workloads::impInterpreter(), "imp-run", "SD"));
  const std::string Sample(workloads::impSampleProgram());
  std::set<std::pair<size_t, size_t>> Used;
  // A fresh key: the sample program with a seed-drawn accumulator seed and
  // parity modulus, run on small seed-drawn inputs (generation dominates).
  auto FreshKey = [&]() -> uint32_t {
    size_t Acc, Mod;
    do {
      Acc = uniform(R, 1, 99999);
      Mod = uniform(R, 2, 9);
    } while (!Used.insert({Acc, Mod}).second);
    std::string Prog = replaceOnce(Sample, "(assign acc (const 1))",
                                   "(assign acc (const " +
                                       std::to_string(Acc) + "))");
    Prog = replaceOnce(Prog, "(op2 remainder (var i) (const 2))",
                       "(op2 remainder (var i) (const " + std::to_string(Mod) +
                           "))");
    std::string Args = "(" + std::to_string(uniform(R, 1, 100)) + " " +
                       std::to_string(uniform(R, 1, 100)) + " " +
                       std::to_string(uniform(R, 2, 6)) + ")";
    W.Pool.push_back(request(0, {Prog, "_"}, {Args}));
    return static_cast<uint32_t>(W.Pool.size() - 1);
  };
  W.Streams.resize(Sz.ClientThreads);
  W.Warm.resize(Sz.ClientThreads);
  for (auto &Warm : W.Warm)
    for (size_t I = 0; I != ChurnWarmPerThread; ++I)
      Warm.push_back({FreshKey(), false});
  std::vector<std::vector<uint32_t>> Seen(Sz.ClientThreads);
  std::bernoulli_distribution Revisit(ChurnRevisitShare), Dup(ChurnDupShare);
  for (size_t I = 0; I != Sz.StreamLen; ++I)
    for (size_t T = 0; T != Sz.ClientThreads; ++T) {
      std::vector<uint32_t> &S = Seen[T];
      if (S.size() > ChurnRevisitDistance && Revisit(R)) {
        size_t Back = uniform(R, ChurnRevisitDistance, S.size() - 1);
        W.Streams[T].push_back({S[S.size() - 1 - Back], false});
        continue;
      }
      uint32_t K = FreshKey();
      S.push_back(K);
      W.Streams[T].push_back({K, Dup(R)});
    }
}

// -- skew_run ----------------------------------------------------------------

constexpr size_t SkewValues = 8, SkewWarmPerProgram = 40;

void buildSkewRun(Rng &R, const Sizing &Sz, Workload &W) {
  W.Respec = true;
  W.Cyclic = true;
  W.Programs.push_back(program("mixwell", workloads::mixwellInterpreter(),
                               "mixwell-run", "SD"));
  W.Programs.push_back(
      program("lazy", workloads::lazyInterpreter(), "lazy-run", "SD"));
  W.Programs.push_back(
      program("imp", workloads::impInterpreter(), "imp-run", "SD"));
  const std::string_view Samples[] = {workloads::mixwellSampleProgram(),
                                      workloads::lazySampleProgram(),
                                      workloads::impSampleProgram()};
  // Inputs sized so a generic run costs milliseconds against a fraction
  // of a millisecond of JIT compile: MIXWELL's main computes fib(n), LAZY
  // sums to n under call-by-name, IMP loops n times. The cost-setting
  // sizes vary only a little between draws, so which value the seed makes
  // hot barely moves the workload's cost from seed to seed.
  auto Input = [&](size_t P) -> std::string {
    switch (P) {
    case 0: {
      std::string Xs;
      for (size_t I = 0; I != 4; ++I)
        Xs += (I ? " " : "") + std::to_string(uniform(R, 1, 99));
      return "(19 (" + Xs + "))";
    }
    case 1:
      return std::to_string(uniform(R, 245, 255));
    default:
      return "(" + std::to_string(uniform(R, 100, 99999)) + " " +
             std::to_string(uniform(R, 100, 99999)) + " " +
             std::to_string(uniform(R, 1950, 2000)) + ")";
    }
  };
  std::array<double, SkewValues> Weights;
  for (size_t K = 0; K != SkewValues; ++K)
    Weights[K] = 1.0 / double((K + 1) * (K + 1));
  std::discrete_distribution<size_t> Zipf(Weights.begin(), Weights.end());

  std::vector<uint32_t> First(W.Programs.size());
  for (size_t P = 0; P != W.Programs.size(); ++P) {
    First[P] = static_cast<uint32_t>(W.Pool.size());
    std::set<std::string> Distinct;
    while (Distinct.size() != SkewValues) {
      std::string In = Input(P);
      if (Distinct.insert(In).second)
        W.Pool.push_back(request(static_cast<uint32_t>(P),
                                 {std::string(Samples[P]), "_"}, {In}));
    }
  }
  // Every client thread cycles through the programs, each draw Zipf over
  // that program's values.
  auto Draw = [&](size_t I) {
    size_t P = I % W.Programs.size();
    return Unit{First[P] + static_cast<uint32_t>(Zipf(R)), false};
  };
  W.Streams.resize(Sz.ClientThreads);
  W.Warm.resize(Sz.ClientThreads);
  for (size_t T = 0; T != Sz.ClientThreads; ++T) {
    for (size_t I = 0; I != SkewWarmPerProgram * W.Programs.size(); ++I)
      W.Warm[T].push_back(Draw(I + T));
    for (size_t I = 0; I != Sz.StreamLen; ++I)
      W.Streams[T].push_back(Draw(I + T));
  }
}

// -- Oracle ------------------------------------------------------------------

/// Oracle processes: the pool is dealt round-robin over this many forked
/// children (the reference interpreter is far slower than the VM, and the
/// skewed workload's millisecond inputs cost it up to a second each).
constexpr size_t OracleProcs = 4;

/// Evaluates every \p Procs-th pool request from \p First with
/// eval::Interp on the unspecialized program and all of its arguments;
/// one "<ok> <len>\n<text>" record per request on \p Fd. Runs in a forked
/// child, on a large stack (the reference interpreter recurses on the
/// host stack for non-tail calls).
void oracleChild(const Workload &W, size_t First, size_t Procs, int Fd) {
  LargeStackThread T([&] {
    vm::Heap Heap;
    Arena AstArena;
    DatumFactory Datums(AstArena);
    ExprFactory Exprs(AstArena);
    std::vector<std::unique_ptr<Program>> Progs;
    std::vector<std::unique_ptr<eval::Interp>> Interps;
    std::string ParseErr;
    for (const ProgramSpec &P : W.Programs) {
      Result<Program> Prog =
          frontendProgram(P.Template.ProgramText, Exprs, Datums);
      if (!Prog) {
        ParseErr = Prog.error().render();
        break;
      }
      Progs.push_back(std::make_unique<Program>(std::move(*Prog)));
      Interps.push_back(std::make_unique<eval::Interp>(Heap, *Progs.back()));
    }
    auto Emit = [&](bool Ok, const std::string &Text) {
      std::string Rec = (Ok ? "1 " : "0 ") + std::to_string(Text.size()) +
                        "\n" + Text;
      for (size_t Off = 0; Off < Rec.size();) {
        ssize_t N = ::write(Fd, Rec.data() + Off, Rec.size() - Off);
        if (N <= 0)
          _exit(3);
        Off += static_cast<size_t>(N);
      }
    };
    for (size_t I = First; I < W.Pool.size(); I += Procs) {
      const RequestSpec &Q = W.Pool[I];
      if (!ParseErr.empty()) {
        Emit(false, ParseErr);
        continue;
      }
      Arena ReqArena;
      DatumFactory ReqDatums(ReqArena);
      vm::RootScope Roots(Heap);
      std::vector<vm::Value> Args;
      std::string Bad;
      size_t Run = 0;
      auto Parse = [&](const std::string &Text) {
        Result<const Datum *> D = readDatum(Text, ReqDatums);
        if (!D) {
          Bad = D.error().render();
          return;
        }
        Args.push_back(Roots.protect(vm::valueFromDatum(Heap, *D)));
      };
      for (const std::string &S : Q.Net.SpecArgs)
        Parse(S == "_" && Run < Q.Net.RunArgs.size() ? Q.Net.RunArgs[Run++]
                                                      : S);
      if (!Bad.empty()) {
        Emit(false, Bad);
        continue;
      }
      Result<vm::Value> V = Interps[Q.Program]->callFunction(
          Symbol::intern(W.Programs[Q.Program].Template.Entry), Args);
      if (!V)
        Emit(false, V.error().render());
      else
        Emit(true, vm::valueToString(*V));
    }
  });
  T.join();
}

/// Reads one child's records into every \p Procs-th pool slot from
/// \p First.
bool readOracle(Workload &W, size_t First, size_t Procs, int Fd,
                std::string &Err) {
  std::string Buf;
  char Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  size_t Pos = 0;
  for (size_t I = First; I < W.Pool.size(); I += Procs) {
    size_t Nl = Buf.find('\n', Pos);
    if (Nl == std::string::npos || Nl < Pos + 2) {
      Err = "oracle output truncated";
      return false;
    }
    bool Ok = Buf[Pos] == '1';
    size_t Len = std::stoull(Buf.substr(Pos + 2, Nl - Pos - 2));
    std::string Text = Buf.substr(Nl + 1, Len);
    Pos = Nl + 1 + Len;
    if (!Ok) {
      Err = "oracle failed on a generated request: " + Text;
      return false;
    }
    W.Pool[I].Expected = std::move(Text);
  }
  return true;
}

bool computeOracle(Workload &W, std::string &Err) {
  struct Child {
    pid_t Pid = -1;
    int Fd = -1;
  };
  std::vector<Child> Kids;
  for (size_t C = 0; C != OracleProcs && Err.empty(); ++C) {
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      Err = std::string("pipe: ") + strerror(errno);
      break;
    }
    pid_t Pid = ::fork();
    if (Pid < 0) {
      Err = std::string("fork: ") + strerror(errno);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      break;
    }
    if (Pid == 0) {
      ::close(Pipe[0]);
      for (const Child &K : Kids)
        ::close(K.Fd);
      oracleChild(W, C, OracleProcs, Pipe[1]);
      ::close(Pipe[1]);
      _exit(0);
    }
    ::close(Pipe[1]);
    Kids.push_back({Pid, Pipe[0]});
  }
  // A child blocked on a full pipe waits only for this loop to reach it,
  // so reading the pipes one after another cannot deadlock.
  for (size_t C = 0; C != Kids.size(); ++C) {
    if (Err.empty() && Kids.size() == OracleProcs)
      readOracle(W, C, OracleProcs, Kids[C].Fd, Err);
    ::close(Kids[C].Fd);
    int Status = 0;
    while (::waitpid(Kids[C].Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    if (Err.empty() && (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0))
      Err = "oracle process failed";
  }
  return Err.empty();
}

} // namespace

bool buildWorkload(const std::string &Name, uint64_t Seed, const Sizing &Sz,
                   Workload &Out, std::string &Err) {
  Out = Workload();
  Out.Name = Name;
  // Each workload draws from its own stream of the seed (salted with an
  // FNV-1a hash of its name), so adding a workload never changes
  // another's inputs.
  uint64_t Salt = 1469598103934665603ull;
  for (char C : Name)
    Salt = (Salt ^ static_cast<uint8_t>(C)) * 1099511628211ull;
  Rng R(Seed * 0x9E3779B97F4A7C15ull ^ Salt);
  if (Name == "hit_serve")
    buildHitServe(R, Sz, Out);
  else if (Name == "miss_churn")
    buildMissChurn(R, Sz, Out);
  else if (Name == "skew_run")
    buildSkewRun(R, Sz, Out);
  else {
    Err = "unknown workload '" + Name + "'";
    return false;
  }
  return computeOracle(Out, Err);
}

} // namespace servebench
